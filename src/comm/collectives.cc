#include "comm/collectives.h"

#include <algorithm>
#include <initializer_list>
#include <optional>

#include "common/check.h"
#include "compress/compressor.h"
#include "tensor/ops.h"

namespace pr {
namespace {

// Message kinds used by the collectives; upper layers use other values.
constexpr int kKindRsChunk = 103;
constexpr int kKindAgChunk = 105;
constexpr int kKindSegRsChunk = 108;
constexpr int kKindSegAgChunk = 109;

Status ValidateGroup(const std::vector<NodeId>& members, size_t my_index) {
  if (members.empty()) {
    return Status::InvalidArgument("collective: empty member list");
  }
  if (my_index >= members.size()) {
    return Status::InvalidArgument("collective: my_index out of range");
  }
  return Status::OK();
}

Status ValidateWeights(const std::vector<NodeId>& members,
                       const std::vector<double>& weights) {
  if (weights.size() != members.size()) {
    return Status::InvalidArgument(
        "collective: weights/members size mismatch");
  }
  return Status::OK();
}

/// Chunk boundaries for splitting `n` elements into `p` near-equal parts.
std::pair<size_t, size_t> ChunkBounds(size_t n, size_t p, size_t chunk) {
  const size_t base = n / p;
  const size_t rem = n % p;
  const size_t begin = chunk * base + std::min(chunk, rem);
  const size_t len = base + (chunk < rem ? 1 : 0);
  return {begin, begin + len};
}

/// Segments per chunk. An empty chunk still circulates one empty segment so
/// every (step, chunk) transfer has a uniform message schedule.
size_t NumSegments(size_t chunk_len, size_t segment_floats) {
  if (chunk_len == 0) return 1;
  return (chunk_len + segment_floats - 1) / segment_floats;
}

/// Bounds of segment `j` within chunk [chunk_begin, chunk_end).
std::pair<size_t, size_t> SegmentBounds(size_t chunk_begin, size_t chunk_end,
                                        size_t segment_floats, size_t j) {
  const size_t b = std::min(chunk_begin + j * segment_floats, chunk_end);
  const size_t e = std::min(b + segment_floats, chunk_end);
  return {b, e};
}

/// True when a ring message's control fields are exactly `want`. Peers
/// supply these, so a short frame is a mismatch, not an out-of-bounds read.
bool FieldsAre(const Envelope& env, std::initializer_list<int64_t> want) {
  return env.ints.size() == want.size() &&
         std::equal(want.begin(), want.end(), env.ints.begin());
}

/// One circulation of the classic ring: P-1 steps, each sending a whole
/// chunk right and combining the chunk received from the left. The
/// reduce-scatter pass (offset 0) accumulates, after which member i holds
/// the full sum of chunk (i + 1) % P; the all-gather pass (offset 1)
/// circulates those owned chunks and overwrites.
Status ClassicRingPass(Endpoint* ep, const std::vector<NodeId>& members,
                       size_t my_index, uint64_t tag, int kind, size_t offset,
                       float* buf, size_t n) {
  const size_t p = members.size();
  const NodeId right = members[(my_index + 1) % p];
  const NodeId left = members[(my_index + p - 1) % p];
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t send_chunk = (my_index + offset + p - step) % p;
    const size_t recv_chunk = (my_index + offset + p - step - 1) % p;
    auto [sb, se] = ChunkBounds(n, p, send_chunk);
    PR_RETURN_NOT_OK(ep->Send(
        right, tag, kind,
        {static_cast<int64_t>(step), static_cast<int64_t>(send_chunk)},
        std::vector<float>(buf + sb, buf + se)));
    std::optional<Envelope> env = ep->RecvMatching(left, tag, kind);
    if (!env.has_value()) {
      return Status::Cancelled("transport shut down during ring all-reduce");
    }
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    if (!FieldsAre(*env, {static_cast<int64_t>(step),
                          static_cast<int64_t>(recv_chunk)}) ||
        env->payload.size() != re - rb) {
      return Status::InvalidArgument(
          "ring: chunk malformed or out of schedule");
    }
    if (kind == kKindRsChunk) {
      Axpy(1.0f, env->payload.data(), buf + rb, re - rb);
    } else {
      std::copy(env->payload.begin(), env->payload.end(), buf + rb);
    }
  }
  return Status::OK();
}

/// A member's two ring links, as both segmented rings use them: segment
/// sends to the right neighbour and segment receives from the left one,
/// plain or under a RingWatch.
class SegmentLink {
 public:
  SegmentLink(Endpoint* ep, const std::vector<NodeId>& members,
              size_t my_index, uint64_t tag, uint8_t encoding,
              const RingWatch* watch)
      : ep_(ep),
        right_(members[(my_index + 1) % members.size()]),
        left_(members[(my_index + members.size() - 1) % members.size()]),
        tag_(tag),
        encoding_(encoding),
        watch_(watch) {}

  /// Under a watch a failed send is not an error: a vanished peer shows up
  /// as a receive that never completes, which the watch resolves.
  Status Send(int kind, size_t step, size_t chunk, size_t j, Buffer b) {
    Status s = ep_->Send(right_, tag_, kind,
                         {static_cast<int64_t>(step),
                          static_cast<int64_t>(chunk),
                          static_cast<int64_t>(j)},
                         std::move(b), encoding_);
    return watch_ != nullptr ? Status::OK() : s;
  }

  /// Receives segment (step, chunk, j) of `kind` into `out`. Without a
  /// watch, per-pair FIFO plus the deterministic schedule mean the next
  /// left-neighbour message of this kind *is* the expected one, so its
  /// fields are validated rather than selected on.
  Status Recv(int kind, size_t step, size_t chunk, size_t j, Buffer* out) {
    const std::initializer_list<int64_t> want = {
        static_cast<int64_t>(step), static_cast<int64_t>(chunk),
        static_cast<int64_t>(j)};
    std::optional<Envelope> env;
    if (watch_ == nullptr) {
      env = ep_->RecvMatching(left_, tag_, kind);
      if (!env.has_value()) return Shutdown();
      if (!FieldsAre(*env, want)) {
        return Status::InvalidArgument(
            "ring: segment malformed or out of schedule");
      }
    } else {
      const auto match = [&](const Envelope& e) {
        return e.from == left_ && e.tag == tag_ && e.kind == kind &&
               FieldsAre(e, want);
      };
      while (!(env = ep_->RecvWhereFor(match, watch_->tick_seconds))) {
        if (ep_->closed()) return Shutdown();
        if (!watch_->on_tick()) {
          return Status::Unavailable("ring: reduce abandoned by its watch");
        }
      }
    }
    *out = std::move(env->payload);
    return Status::OK();
  }

 private:
  static Status Shutdown() {
    return Status::Cancelled("transport shut down during ring all-reduce");
  }

  Endpoint* ep_;
  NodeId right_;
  NodeId left_;
  uint64_t tag_;
  uint8_t encoding_;
  const RingWatch* watch_;
};

}  // namespace

Status RingWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                             const std::vector<double>& weights,
                             size_t my_index, uint64_t tag,
                             std::vector<float>* data) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr);
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  PR_RETURN_NOT_OK(ValidateWeights(members, weights));

  // Pre-scale by our weight; reduce-scatter + all-gather then compute a
  // plain sum (Patarasuk & Yuan's bandwidth-optimal composition).
  float* buf = data->data();
  const size_t n = data->size();
  Scale(static_cast<float>(weights[my_index]), buf, n);
  PR_RETURN_NOT_OK(
      ClassicRingPass(ep, members, my_index, tag, kKindRsChunk, 0, buf, n));
  return ClassicRingPass(ep, members, my_index, tag, kKindAgChunk, 1, buf, n);
}

Status SegmentedRingWeightedAllReduce(Endpoint* ep,
                                      const std::vector<NodeId>& members,
                                      const std::vector<double>& weights,
                                      size_t my_index, uint64_t tag,
                                      float* data, size_t n,
                                      size_t segment_floats,
                                      const RingWatch* watch) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(data != nullptr || n == 0);
  PR_CHECK_GE(segment_floats, size_t{1});
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  PR_RETURN_NOT_OK(ValidateWeights(members, weights));
  const size_t p = members.size();

  Scale(static_cast<float>(weights[my_index]), data, n);
  if (p == 1) return Status::OK();

  const size_t owned = (my_index + 1) % p;
  SegmentLink link(ep, members, my_index, tag, /*encoding=*/0, watch);
  auto recv_seg = [&](int kind, size_t step, size_t chunk, size_t j,
                      size_t expect_len, Buffer* out) -> Status {
    PR_RETURN_NOT_OK(link.Recv(kind, step, chunk, j, out));
    if (out->size() != expect_len) {
      return Status::InvalidArgument("ring: segment length mismatch");
    }
    return Status::OK();
  };

  // Reduce-scatter, buffer-forwarding form. The only payload
  // materializations are the step-0 copies of this member's own chunk; every
  // later hop accumulates into the received buffer in place (it is uniquely
  // owned on arrival) and forwards the same handle.
  {
    auto [ob, oe] = ChunkBounds(n, p, my_index);
    const size_t nseg = NumSegments(oe - ob, segment_floats);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(ob, oe, segment_floats, j);
      PR_RETURN_NOT_OK(link.Send(kKindSegRsChunk, 0, my_index, j,
                                 ep->MakePayload(data + sb, se - sb)));
    }
  }
  std::vector<Buffer> retained;  // Reduced owned-chunk segments, for the AG.
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t recv_chunk = (my_index + p - step - 1) % p;
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    const size_t nseg = NumSegments(re - rb, segment_floats);
    const bool final_hop = (step + 2 == p);
    if (final_hop) retained.resize(nseg);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(rb, re, segment_floats, j);
      Buffer b;
      PR_RETURN_NOT_OK(
          recv_seg(kKindSegRsChunk, step, recv_chunk, j, se - sb, &b));
      if (se > sb) {
        // partial += mine: same per-element additions as the classic ring's
        // mine += partial (float addition commutes), so results are
        // bitwise-identical.
        Axpy(1.0f, data + sb, b.mutable_data(), se - sb);
      }
      if (!final_hop) {
        PR_RETURN_NOT_OK(
            link.Send(kKindSegRsChunk, step + 1, recv_chunk, j, std::move(b)));
      } else {
        // recv_chunk == owned here: the segment is fully reduced. Publish it
        // into the caller's buffer and retain the handle so the all-gather's
        // first hop re-circulates it without copying.
        if (se > sb) std::copy(b.data(), b.data() + (se - sb), data + sb);
        retained[j] = std::move(b);
      }
    }
  }

  // All-gather: zero payload materializations — the first hop sends the
  // retained reduced buffers, later hops copy into place and forward.
  for (size_t j = 0; j < retained.size(); ++j) {
    PR_RETURN_NOT_OK(
        link.Send(kKindSegAgChunk, 0, owned, j, std::move(retained[j])));
  }
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t recv_chunk = (my_index + p - step) % p;
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    const size_t nseg = NumSegments(re - rb, segment_floats);
    const bool final_hop = (step + 2 == p);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(rb, re, segment_floats, j);
      Buffer b;
      PR_RETURN_NOT_OK(
          recv_seg(kKindSegAgChunk, step, recv_chunk, j, se - sb, &b));
      if (se > sb) std::copy(b.data(), b.data() + (se - sb), data + sb);
      if (!final_hop) {
        PR_RETURN_NOT_OK(
            link.Send(kKindSegAgChunk, step + 1, recv_chunk, j, std::move(b)));
      }
    }
  }
  return Status::OK();
}

Status SegmentedRingCompressedAllReduce(Endpoint* ep,
                                        const std::vector<NodeId>& members,
                                        const std::vector<double>& weights,
                                        size_t my_index, uint64_t tag,
                                        float* data, size_t n,
                                        Compressor* compressor,
                                        size_t segment_floats,
                                        const RingWatch* watch) {
  PR_CHECK(ep != nullptr);
  PR_CHECK(compressor != nullptr);
  PR_CHECK(compressor->enabled());
  PR_CHECK(data != nullptr || n == 0);
  PR_CHECK_GE(segment_floats, size_t{1});
  PR_RETURN_NOT_OK(ValidateGroup(members, my_index));
  PR_RETURN_NOT_OK(ValidateWeights(members, weights));
  const size_t p = members.size();

  Scale(static_cast<float>(weights[my_index]), data, n);
  if (p == 1) return Status::OK();

  const size_t owned = (my_index + 1) % p;
  // Unlike the raw ring, the payload length is *not* checked on receive:
  // blob sizes are codec-dependent. The decoders validate the element
  // count instead, turning a mismatched blob into an error status rather
  // than a crash.
  SegmentLink link(ep, members, my_index, tag, compressor->encoding_tag(),
                   watch);

  // Reduce-scatter. Step 0 encodes this member's own chunk; every later hop
  // decodes the incoming partial sum straight onto its own (pre-scaled)
  // contribution in `data` and re-encodes from there. Overwriting `data` is
  // safe: each contribution is read exactly once, and the all-gather
  // rewrites every chunk but the owned one, which ends fully reduced. Each
  // re-encode's loss is charged to this member's error-feedback residual at
  // those element positions and folded into its next encode there.
  {
    auto [ob, oe] = ChunkBounds(n, p, my_index);
    const size_t nseg = NumSegments(oe - ob, segment_floats);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(ob, oe, segment_floats, j);
      PR_RETURN_NOT_OK(
          link.Send(kKindSegRsChunk, 0, my_index, j,
                    compressor->EncodeRange(data + sb, sb, se - sb)));
    }
  }
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t recv_chunk = (my_index + p - step - 1) % p;
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    const size_t nseg = NumSegments(re - rb, segment_floats);
    const bool final_hop = (step + 2 == p);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(rb, re, segment_floats, j);
      Buffer got;
      PR_RETURN_NOT_OK(link.Recv(kKindSegRsChunk, step, recv_chunk, j, &got));
      const size_t len = se - sb;
      PR_RETURN_NOT_OK(
          compressor->DecodeAccumulate(got, data + sb, data + sb, len));
      // On the final hop recv_chunk == owned: fully reduced, with the
      // owner's own contribution added exactly (never re-encoded before the
      // all-gather).
      if (!final_hop) {
        PR_RETURN_NOT_OK(
            link.Send(kKindSegRsChunk, step + 1, recv_chunk, j,
                      compressor->EncodeRange(data + sb, sb, len)));
      }
    }
  }

  // All-gather. The chunk owner encodes once and *publishes the decoded
  // values locally* (EncodeRangePublish); every later hop decodes into place
  // and forwards the same blob unchanged — so all members publish bitwise
  // the same chunk values, exactly like the uncompressed ring.
  {
    auto [ob, oe] = ChunkBounds(n, p, owned);
    const size_t nseg = NumSegments(oe - ob, segment_floats);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(ob, oe, segment_floats, j);
      PR_RETURN_NOT_OK(
          link.Send(kKindSegAgChunk, 0, owned, j,
                    compressor->EncodeRangePublish(data + sb, sb, se - sb)));
    }
  }
  for (size_t step = 0; step + 1 < p; ++step) {
    const size_t recv_chunk = (my_index + p - step) % p;
    auto [rb, re] = ChunkBounds(n, p, recv_chunk);
    const size_t nseg = NumSegments(re - rb, segment_floats);
    const bool final_hop = (step + 2 == p);
    for (size_t j = 0; j < nseg; ++j) {
      auto [sb, se] = SegmentBounds(rb, re, segment_floats, j);
      Buffer got;
      PR_RETURN_NOT_OK(link.Recv(kKindSegAgChunk, step, recv_chunk, j, &got));
      PR_RETURN_NOT_OK(compressor->DecodeInto(got, data + sb, se - sb));
      if (!final_hop) {
        PR_RETURN_NOT_OK(link.Send(kKindSegAgChunk, step + 1, recv_chunk, j,
                                   std::move(got)));
      }
    }
  }
  return Status::OK();
}

Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag, float* data,
                              size_t n, Compressor* compressor,
                              const RingWatch* watch) {
  if (compressor != nullptr && compressor->enabled()) {
    return SegmentedRingCompressedAllReduce(ep, members, weights, my_index,
                                            tag, data, n, compressor,
                                            kDefaultSegmentFloats, watch);
  }
  return SegmentedRingWeightedAllReduce(ep, members, weights, my_index, tag,
                                        data, n, kDefaultSegmentFloats, watch);
}

Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag,
                              std::vector<float>* data,
                              Compressor* compressor) {
  PR_CHECK(data != nullptr);
  return GroupWeightedAllReduce(ep, members, weights, my_index, tag,
                                data->data(), data->size(), compressor);
}

Status GroupAverageAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                             size_t my_index, uint64_t tag, float* data,
                             size_t n, Compressor* compressor) {
  const std::vector<double> weights(members.size(),
                                    1.0 / static_cast<double>(members.size()));
  return GroupWeightedAllReduce(ep, members, weights, my_index, tag, data, n,
                                compressor);
}

}  // namespace pr
