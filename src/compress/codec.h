#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"

namespace pr {

/// \brief Payload compression schemes for the collective data plane
/// (DESIGN.md §5i).
///
/// The enum values double as the wire payload-encoding tag (the flags byte
/// of the PRW1 v2 preamble), so they are stable protocol constants: 0 must
/// stay "raw fp32" forever, and new codecs append. Tag 3 carried top-k
/// sparsified blobs, a codec that never won on any transport; it is rejected
/// as corrupt and must not be reused, so a peer still sending it fails loudly.
enum class CompressionKind : uint8_t {
  kNone = 0,  ///< raw fp32 floats (the uncompressed payload path)
  kFp16 = 1,  ///< IEEE-754 half precision, software converted
  kInt8 = 2,  ///< linear 8-bit quantization, per-chunk min/scale
};

/// Number of distinct encoding tags (for validation of wire bytes).
inline constexpr uint8_t kNumCompressionKinds = 3;

/// True when `tag` names a known encoding (a corrupt frame check).
inline bool IsValidEncodingTag(uint8_t tag) {
  return tag < kNumCompressionKinds;
}

/// Config/report token: "none" | "fp16" | "int8".
std::string CompressionKindName(CompressionKind kind);

/// Parses a config token; false on an unknown name.
bool ParseCompressionKind(const std::string& token, CompressionKind* out);

/// Elements per int8 quantization chunk: each chunk carries its own
/// min/scale pair, so a single outlier only degrades 1 KiB of neighbours.
inline constexpr size_t kInt8ChunkElems = 1024;

/// \brief One compression scheme: float range -> self-describing blob and
/// back.
///
/// Blobs are float-backed Buffers (the transport's only payload type); the
/// codec treats the floats as a raw 4-byte word array via memcpy, so
/// `blob.size() * 4` is exactly the bytes that cross the wire. Word 0 is
/// always the element count `n`, making every blob self-describing: a
/// decoder needs only the blob and the encoding tag.
///
/// Codecs are stateless and deterministic: the same input always yields the
/// same blob on every platform (int8 rounding is round-half-up via
/// truncation).
///
/// The two kernels, EncodeWithFeedback and DecodeAccumulate, are what the
/// data plane calls; Encode and Decode are thin wrappers over them. The
/// fp16 and int8 kernels are fused and work through 1024-element chunks
/// while each sits in L1, written to auto-vectorize (DESIGN.md §5i).
class Codec {
 public:
  virtual ~Codec() = default;

  virtual CompressionKind kind() const = 0;

  /// Encodes `n` floats into a blob. `x` may be null only when n == 0.
  Buffer Encode(const float* x, size_t n) const {
    return EncodeWithFeedback(x, nullptr, n, nullptr);
  }

  /// The error-feedback encode kernel. With a non-null `residual` it encodes
  /// `send = x + residual` and leaves `residual = send - decoded`, where
  /// `decoded` is what Decode returns for the blob; with a null residual,
  /// `send = x`. A non-null `publish` receives `decoded`; it may alias `x`
  /// but not `residual`. The blob is bitwise Encode(send), and the codec
  /// never decodes it to get there.
  virtual Buffer EncodeWithFeedback(const float* x, float* residual, size_t n,
                                    float* publish) const = 0;

  /// Decodes a blob into `out` (resized to the encoded element count).
  /// InvalidArgument on a malformed blob (truncated, inconsistent counts).
  Status Decode(const Buffer& blob, std::vector<float>* out) const;

  /// Decodes an `n`-element blob straight into `out[0..n)`, adding `add[i]`
  /// to each decoded value when `add` is non-null (`add` may equal `out`).
  /// The whole blob is validated first: a malformed blob, or one that does
  /// not hold exactly `n` elements, returns InvalidArgument with `out`
  /// untouched.
  virtual Status DecodeAccumulate(const Buffer& blob, const float* add,
                                  float* out, size_t n) const = 0;

  /// Exact blob size in bytes for an `n`-element encode — the analytical
  /// form of Encode(x, n).size() * 4, used by the simulator's traffic model
  /// and the bench's bytes-on-wire accounting.
  virtual size_t EncodedBytes(size_t n) const = 0;
};

/// Factory. `kind` must not be kNone (raw payloads bypass codecs entirely).
std::unique_ptr<Codec> MakeCodec(CompressionKind kind);

/// Blob (or raw payload) bytes for an `n`-element vector under `kind`;
/// kNone counts the raw fp32 bytes. Shared by the sim traffic model and the
/// bench report so both agree with the threaded engine's byte counters.
size_t EncodedBlobBytes(CompressionKind kind, size_t n);

/// Decodes a payload stamped with wire encoding `tag`: raw fp32 payloads
/// (tag 0) copy through, everything else routes to the matching codec.
Status DecodeTaggedPayload(uint8_t tag, const Buffer& payload,
                           std::vector<float>* out);

}  // namespace pr
