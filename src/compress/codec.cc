#include "compress/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/simd.h"

namespace pr {
namespace {

// The int8 and fp16 kernels write quantized bytes and halves straight into
// the blob's memory, which matches the word-packing below (element j of a
// word in bits 8j.. or 16j..) only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "codec kernels assume a little-endian host");

// ---------------------------------------------------------------------------
// Word-level blob access. Blobs are float-backed Buffers treated as raw
// 4-byte words; all access goes through memcpy (or unsigned-char pointers)
// so no float operation ever touches (and possibly quietens) the packed
// integer bits.
// ---------------------------------------------------------------------------

void SetWord(float* words, size_t i, uint32_t w) {
  std::memcpy(words + i, &w, sizeof(w));
}

uint32_t GetWord(const Buffer& blob, size_t i) {
  uint32_t w;
  std::memcpy(&w, blob.data() + i, sizeof(w));
  return w;
}

float GetFloatWord(const Buffer& blob, size_t i) { return blob[i]; }

unsigned char* WordBytes(float* words, size_t i) {
  return reinterpret_cast<unsigned char*>(words + i);
}

const unsigned char* WordBytes(const Buffer& blob, size_t i) {
  return reinterpret_cast<const unsigned char*>(blob.data() + i);
}

/// A zero-filled blob of `words` words with word 0 = `n`. The zero fill is
/// what leaves the unused bytes of a ragged last word zero.
std::vector<float> NewBlob(size_t words, size_t n) {
  std::vector<float> blob(words, 0.0f);
  SetWord(blob.data(), 0, static_cast<uint32_t>(n));
  return blob;
}

/// The checks every blob shares: a count word that names `n` elements, and
/// exactly `expected_bytes` of payload.
Status CheckCountAndSize(const Buffer& blob, size_t n, size_t expected_bytes,
                         const char* codec) {
  if (blob.empty()) {
    return Status::InvalidArgument(std::string(codec) + " blob: empty");
  }
  if (blob.size() * sizeof(float) != expected_bytes ||
      GetWord(blob, 0) != n) {
    return Status::InvalidArgument(std::string(codec) +
                                   " blob: size/count mismatch");
  }
  return Status::OK();
}

// The per-chunk kernels below are PR_SIMD_KERNELs: every one is element-wise
// IEEE arithmetic plus a fixed-lane min/max, so the baseline and AVX2 builds
// produce bitwise identical blobs, residuals and decoded values.

// Chunking shared by the fused kernels: each chunk is small enough that its
// second pass reads from L1.
constexpr size_t kChunk = kInt8ChunkElems;

/// Branch-free select through bit masks. A plain `c ? a : b` feeding a
/// float<->int conversion lets GCC push the conversion into one arm of a
/// branch (it folds the other, constant arm), and a conversion left on a
/// branch is not if-converted, so the loop stays scalar.
inline int32_t Pick(bool c, int32_t a, int32_t b) {
  const int32_t mask = -static_cast<int32_t>(c);
  return (a & mask) | (b & ~mask);
}

inline float Pick(bool c, float a, float b) {
  return std::bit_cast<float>(
      Pick(c, std::bit_cast<int32_t>(a), std::bit_cast<int32_t>(b)));
}

// ---------------------------------------------------------------------------
// Branch-free IEEE-754 half conversion (portable integer and exact float
// arithmetic, no F16C/NEON intrinsics, so encodes are bitwise identical
// across every host this repo builds on). Rounding is half away from zero
// on the first dropped bit; that rule is part of the wire format.
// ---------------------------------------------------------------------------

inline uint32_t FloatToHalfBits(float f) {
  const uint32_t x = std::bit_cast<uint32_t>(f);
  const uint32_t sign = (x >> 16) & 0x8000u;
  const int32_t a = static_cast<int32_t>(x & 0x7fffffffu);  // |f|
  // Normal halves: rebias the exponent, keep 10 mantissa bits, and add the
  // first dropped bit. A carry into the exponent is exactly the correct
  // rounding (1.11..1 * 2^e -> 2^(e+1), and the largest finite -> inf).
  const int32_t normal = (a >> 13) - ((127 - 15) << 10) + ((a >> 12) & 1);
  // Subnormal halves and underflow to zero: |f| * 2^24 counts units of the
  // smallest subnormal half. Its integer part and its first dropped bit
  // (the integer part of |f| * 2^25) are exact conversions; the clamp keeps
  // them in range for every input, whichever result is picked below.
  const float af = std::bit_cast<float>(a);
  const float c = Pick(af < 0x1p-14f, af, 0x1p-14f);
  const int32_t subnormal = static_cast<int32_t>(c * 0x1p24f) +
                            (static_cast<int32_t>(c * 0x1p25f) & 1);
  int32_t h = Pick(a < 0x38800000, subnormal, normal);  // below 2^-14
  h = Pick(a >= 0x47800000, 0x7c00, h);  // at or above 2^16: overflow, inf
  h = Pick(a > 0x7f800000, 0x7e00, h);   // nan keeps its top mantissa bit
  return sign | static_cast<uint32_t>(h);
}

inline float HalfBitsToFloat(uint32_t h) {
  const uint32_t sign = (h & 0x8000u) << 16;
  const int32_t em = static_cast<int32_t>(h & 0x7fffu);
  // Rebias the exponent; inf and nan rebias twice, to 255.
  const int32_t normal = (em << 13) + ((127 - 15) << 23) +
                         Pick(em >= 0x7c00, (127 - 15) << 23, 0);
  // Subnormal halves (and zero) are exactly em * 2^-24.
  const int32_t subnormal =
      std::bit_cast<int32_t>(static_cast<float>(em) * 0x1p-24f);
  const int32_t bits = Pick(em < 0x400, subnormal, normal);
  return std::bit_cast<float>(sign | static_cast<uint32_t>(bits));
}

// ---------------------------------------------------------------------------
// fp16 codec: word 0 = n, then ceil(n/2) words each packing two halves
// (element 2j in the low 16 bits, 2j+1 in the high).
// ---------------------------------------------------------------------------

/// One chunk of the fp16 feedback encode: one conversion pass that writes
/// the halves (straight into the blob, low byte first), the residual and
/// the published values together.
template <bool kFeedback, bool kPublish>
PR_SIMD_KERNEL void Fp16EncodeChunk(const float* x, float* r, size_t len,
                                    unsigned char* halves, float* publish) {
  if constexpr (kFeedback) {
    // Fold first, so a `publish` that aliases `x` is only written after `x`
    // has been read.
    for (size_t i = 0; i < len; ++i) r[i] = x[i] + r[i];
  }
  const float* send = kFeedback ? r : x;
  for (size_t i = 0; i < len; ++i) {
    const float s = send[i];
    const uint32_t h = FloatToHalfBits(s);
    halves[2 * i] = static_cast<unsigned char>(h);
    halves[2 * i + 1] = static_cast<unsigned char>(h >> 8);
    if constexpr (kFeedback || kPublish) {
      const float d = HalfBitsToFloat(h);
      if constexpr (kFeedback) r[i] = s - d;
      if constexpr (kPublish) publish[i] = d;
    }
  }
}

template <bool kAdd>
PR_SIMD_KERNEL void Fp16DecodeChunk(const uint16_t* halves, const float* add,
                                    float* out, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    const float d = HalfBitsToFloat(halves[i]);
    out[i] = kAdd ? d + add[i] : d;
  }
}

class Fp16Codec : public Codec {
 public:
  CompressionKind kind() const override { return CompressionKind::kFp16; }

  Buffer EncodeWithFeedback(const float* x, float* residual, size_t n,
                            float* publish) const override {
    PR_CHECK(x != nullptr || n == 0);
    if (residual != nullptr) {
      return publish != nullptr ? Run<true, true>(x, residual, n, publish)
                                : Run<true, false>(x, residual, n, nullptr);
    }
    return publish != nullptr ? Run<false, true>(x, nullptr, n, publish)
                              : Run<false, false>(x, nullptr, n, nullptr);
  }

  Status DecodeAccumulate(const Buffer& blob, const float* add, float* out,
                          size_t n) const override {
    PR_RETURN_NOT_OK(CheckCountAndSize(blob, n, EncodedBytes(n), "fp16"));
    PR_CHECK(out != nullptr || n == 0);
    uint16_t halves[kChunk];
    for (size_t begin = 0; begin < n; begin += kChunk) {
      const size_t len = std::min(kChunk, n - begin);
      std::memcpy(halves, WordBytes(blob, 1) + 2 * begin, 2 * len);
      if (add != nullptr) {
        Fp16DecodeChunk<true>(halves, add + begin, out + begin, len);
      } else {
        Fp16DecodeChunk<false>(halves, nullptr, out + begin, len);
      }
    }
    return Status::OK();
  }

  size_t EncodedBytes(size_t n) const override {
    return 4 * (1 + (n + 1) / 2);
  }

 private:
  template <bool kFeedback, bool kPublish>
  Buffer Run(const float* x, float* residual, size_t n, float* publish) const {
    std::vector<float> blob = NewBlob(EncodedBytes(n) / 4, n);
    for (size_t begin = 0; begin < n; begin += kChunk) {
      const size_t len = std::min(kChunk, n - begin);
      Fp16EncodeChunk<kFeedback, kPublish>(
          x + begin, kFeedback ? residual + begin : nullptr, len,
          WordBytes(blob.data(), 1) + 2 * begin,
          kPublish ? publish + begin : nullptr);
    }
    return Buffer::FromVector(std::move(blob));
  }
};

// ---------------------------------------------------------------------------
// int8 codec: word 0 = n, then per kInt8ChunkElems-element chunk a float
// min word, a float scale word, and ceil(len/4) words of packed quantized
// bytes. q = round_half_up((x - min) / scale) clamped to [0, 255]; a chunk
// whose scale is not positive (all values equal) quantizes to all zeros.
//
// Non-finite input has one defined encoding: a chunk holding a NaN takes
// its first NaN as min and scale, and any quantized value that comes out
// NaN (that chunk, or a range overflowing to inf, e.g. {-3e38, 3e38})
// becomes 0. Both decode to NaN across the chunk, so the fault stays
// visible instead of turning into plausible numbers.
// ---------------------------------------------------------------------------

struct ChunkRange {
  float lo;
  float hi;
};

/// The range as the plain sequential scan `lo = min(lo, s[i])`,
/// `hi = max(hi, s[i])` defines it: the first element to reach an extreme
/// wins, which decides the sign of a zero extreme. A NaN makes the first NaN
/// both ends.
ChunkRange SequentialRange(const float* s, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (s[i] != s[i]) return {s[i], s[i]};
  }
  float lo = s[0], hi = s[0];
  for (size_t i = 1; i < len; ++i) {
    lo = std::min(lo, s[i]);
    hi = std::max(hi, s[i]);
  }
  return {lo, hi};
}

/// First pass of the int8 feedback encode over one chunk: folds `x` into the
/// residual (which then holds `send`) and takes the range in lane-split
/// form, so it vectorizes without reassociating anything. A lane-split
/// min/max equals the sequential one except when an extreme is a signed
/// zero; that case, infinities and NaNs (all caught by the `v - v` probe)
/// take the sequential scan again.
template <bool kFeedback>
PR_SIMD_KERNEL ChunkRange FoldAndRange(const float* x, float* r, size_t len) {
  constexpr size_t kLanes = 16;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  float lo[kLanes], hi[kLanes], probe[kLanes];
  for (size_t k = 0; k < kLanes; ++k) {
    lo[k] = kInf;
    hi[k] = -kInf;
    probe[k] = 0.0f;
  }
  auto visit = [&](size_t i, size_t k) {
    float v = x[i];
    if constexpr (kFeedback) {
      v = x[i] + r[i];
      r[i] = v;
    }
    lo[k] = v < lo[k] ? v : lo[k];
    hi[k] = hi[k] < v ? v : hi[k];
    probe[k] = probe[k] + (v - v);  // nan iff v is inf or nan
  };
  size_t i = 0;
  for (; i + kLanes <= len; i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) visit(i + k, k);
  }
  for (; i < len; ++i) visit(i, 0);
  ChunkRange range{lo[0], hi[0]};
  float any = probe[0];
  for (size_t k = 1; k < kLanes; ++k) {
    range.lo = lo[k] < range.lo ? lo[k] : range.lo;
    range.hi = range.hi < hi[k] ? hi[k] : range.hi;
    any = any + probe[k];
  }
  if (any == 0.0f && range.lo != 0.0f && range.hi != 0.0f) return range;
  return SequentialRange(kFeedback ? r : x, len);
}

/// Second pass: quantize `send`, and write the residual and published
/// values from the same decoded value Decode would produce.
template <bool kFeedback, bool kPublish>
PR_SIMD_KERNEL void QuantizeChunk(const float* send, float lo, float scale,
                                  size_t len, unsigned char* q, float* r,
                                  float* publish) {
  for (size_t i = 0; i < len; ++i) {
    const float s = send[i];
    float v = (s - lo) / scale + 0.5f;
    v = Pick(v > 0.0f, v, 0.0f);  // also maps nan to 0
    v = Pick(v < 255.0f, v, 255.0f);
    const int32_t qi = static_cast<int32_t>(v);
    q[i] = static_cast<unsigned char>(qi);
    if constexpr (kFeedback || kPublish) {
      const float d = lo + scale * static_cast<float>(qi);
      if constexpr (kFeedback) r[i] = s - d;
      if constexpr (kPublish) publish[i] = d;
    }
  }
}

template <bool kAdd>
PR_SIMD_KERNEL void DequantizeChunk(const unsigned char* q, float lo,
                                    float scale, const float* add, float* out,
                                    size_t len) {
  for (size_t i = 0; i < len; ++i) {
    const float d = lo + scale * static_cast<float>(q[i]);
    out[i] = kAdd ? d + add[i] : d;
  }
}

class Int8Codec : public Codec {
 public:
  CompressionKind kind() const override { return CompressionKind::kInt8; }

  Buffer EncodeWithFeedback(const float* x, float* residual, size_t n,
                            float* publish) const override {
    PR_CHECK(x != nullptr || n == 0);
    if (residual != nullptr) {
      return publish != nullptr ? Run<true, true>(x, residual, n, publish)
                                : Run<true, false>(x, residual, n, nullptr);
    }
    return publish != nullptr ? Run<false, true>(x, nullptr, n, publish)
                              : Run<false, false>(x, nullptr, n, nullptr);
  }

  Status DecodeAccumulate(const Buffer& blob, const float* add, float* out,
                          size_t n) const override {
    PR_RETURN_NOT_OK(CheckCountAndSize(blob, n, EncodedBytes(n), "int8"));
    PR_CHECK(out != nullptr || n == 0);
    size_t w = 1;
    for (size_t begin = 0; begin < n; begin += kInt8ChunkElems) {
      const size_t len = std::min(kInt8ChunkElems, n - begin);
      const float lo = GetFloatWord(blob, w);
      const float scale = GetFloatWord(blob, w + 1);
      const unsigned char* q = WordBytes(blob, w + 2);
      if (add != nullptr) {
        DequantizeChunk<true>(q, lo, scale, add + begin, out + begin, len);
      } else {
        DequantizeChunk<false>(q, lo, scale, nullptr, out + begin, len);
      }
      w += 2 + (len + 3) / 4;
    }
    return Status::OK();
  }

  size_t EncodedBytes(size_t n) const override {
    const size_t tail = n % kInt8ChunkElems;
    const size_t words = 1 + (n / kInt8ChunkElems) * (2 + kInt8ChunkElems / 4) +
                         (tail > 0 ? 2 + (tail + 3) / 4 : 0);
    return 4 * words;
  }

 private:
  template <bool kFeedback, bool kPublish>
  Buffer Run(const float* x, float* residual, size_t n, float* publish) const {
    std::vector<float> blob = NewBlob(EncodedBytes(n) / 4, n);
    size_t w = 1;
    for (size_t begin = 0; begin < n; begin += kInt8ChunkElems) {
      const size_t len = std::min(kInt8ChunkElems, n - begin);
      float* r = kFeedback ? residual + begin : nullptr;
      float* p = kPublish ? publish + begin : nullptr;
      const ChunkRange range = FoldAndRange<kFeedback>(x + begin, r, len);
      const float scale = (range.hi - range.lo) / 255.0f;
      const float* send = kFeedback ? r : x + begin;
      unsigned char* q = WordBytes(blob.data(), w + 2);
      if (scale > 0.0f) {
        QuantizeChunk<kFeedback, kPublish>(send, range.lo, scale, len, q, r,
                                           p);
      } else {
        // Every q is 0 (the blob's zero fill) and decodes to the same value.
        const float d = range.lo + scale * 0.0f;
        for (size_t i = 0; i < len; ++i) {
          if constexpr (kFeedback) r[i] = send[i] - d;
          if constexpr (kPublish) p[i] = d;
        }
      }
      blob[w] = range.lo;
      blob[w + 1] = scale;
      w += 2 + (len + 3) / 4;
    }
    return Buffer::FromVector(std::move(blob));
  }
};

const Codec* CodecFor(CompressionKind kind) {
  static const Fp16Codec fp16;
  static const Int8Codec int8;
  switch (kind) {
    case CompressionKind::kFp16:
      return &fp16;
    case CompressionKind::kInt8:
      return &int8;
    case CompressionKind::kNone:
      break;
  }
  return nullptr;
}

}  // namespace

std::string CompressionKindName(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kNone:
      return "none";
    case CompressionKind::kFp16:
      return "fp16";
    case CompressionKind::kInt8:
      return "int8";
  }
  return "none";
}

bool ParseCompressionKind(const std::string& token, CompressionKind* out) {
  if (token == "none") {
    *out = CompressionKind::kNone;
  } else if (token == "fp16") {
    *out = CompressionKind::kFp16;
  } else if (token == "int8") {
    *out = CompressionKind::kInt8;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<Codec> MakeCodec(CompressionKind kind) {
  switch (kind) {
    case CompressionKind::kFp16:
      return std::make_unique<Fp16Codec>();
    case CompressionKind::kInt8:
      return std::make_unique<Int8Codec>();
    case CompressionKind::kNone:
      break;
  }
  PR_CHECK(false) << "MakeCodec: kNone has no codec";
  return nullptr;
}

Status Codec::Decode(const Buffer& blob, std::vector<float>* out) const {
  PR_CHECK(out != nullptr);
  if (blob.empty()) return Status::InvalidArgument("blob: empty");
  // Size the output only once the count word agrees with the blob's size,
  // so a corrupt count can not trigger a huge allocation.
  const size_t n = GetWord(blob, 0);
  if (blob.size() * sizeof(float) != EncodedBytes(n)) {
    return Status::InvalidArgument("blob: size/count mismatch");
  }
  out->resize(n);
  return DecodeAccumulate(blob, nullptr, out->data(), n);
}

size_t EncodedBlobBytes(CompressionKind kind, size_t n) {
  if (kind == CompressionKind::kNone) return n * sizeof(float);
  return CodecFor(kind)->EncodedBytes(n);
}

Status DecodeTaggedPayload(uint8_t tag, const Buffer& payload,
                           std::vector<float>* out) {
  PR_CHECK(out != nullptr);
  if (!IsValidEncodingTag(tag)) {
    return Status::InvalidArgument("unknown payload encoding tag");
  }
  const CompressionKind kind = static_cast<CompressionKind>(tag);
  if (kind == CompressionKind::kNone) {
    *out = payload.ToVector();
    return Status::OK();
  }
  return CodecFor(kind)->Decode(payload, out);
}

}  // namespace pr
