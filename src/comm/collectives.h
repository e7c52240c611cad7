#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "comm/transport.h"
#include "common/status.h"

namespace pr {

class Compressor;

/// Collective operations over an explicit member list of an InProcTransport.
/// Every member must call the same collective with the same `members`,
/// `weights` and `tag`; `tag` isolates concurrent collectives (two parallel
/// partial-reduce groups use distinct tags).
///
/// These are the data-plane of the threaded P-Reduce runtime and are also
/// exercised standalone in tests/benchmarks as the reproduction of the
/// paper's "collective operation" substrate.

/// \brief Bandwidth-optimal ring all-reduce (reduce-scatter + all-gather,
/// Patarasuk & Yuan) computing the weighted sum sum_j weights[j] * x_j.
///
/// Each member pre-scales its vector by its own weight, then the ring runs a
/// plain sum. 2(P-1) steps, each moving ~n/P floats per member. This is the
/// unsegmented reference schedule the segmented rings are checked against:
/// every hop materializes a fresh payload copy of the outgoing chunk.
Status RingWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                             const std::vector<double>& weights,
                             size_t my_index, uint64_t tag,
                             std::vector<float>* data);

/// Segment granularity (in floats) for the pipelined ring: 32Ki floats =
/// 128 KiB per message, small enough to overlap transfer of segment k with
/// accumulation of segment k-1, large enough to amortize envelope overhead.
inline constexpr size_t kDefaultSegmentFloats = size_t{1} << 15;

/// \brief Optional liveness hook for the segmented rings (DESIGN.md §5d).
///
/// Without a watch a ring receive blocks until its segment arrives or the
/// fabric shuts down, and takes the next left-neighbour message of the
/// expected kind as the expected segment (per-pair FIFO order). With one,
/// every segment receive selects on (left, tag, kind, step, chunk, segment)
/// and wakes every `tick_seconds`, so duplicated, delayed or reordered
/// segments are harmless, and sends are best-effort. Each tick that passes
/// without the segment calls `on_tick`; returning false abandons the reduce.
struct RingWatch {
  double tick_seconds = 0.05;
  std::function<bool()> on_tick;
};

/// \brief Segmented, pipelined ring weighted all-reduce with buffer
/// forwarding.
///
/// Same schedule as RingWeightedAllReduce (pre-scale, reduce-scatter,
/// all-gather) but each chunk is split into fixed-size segments that flow
/// through the ring independently: the send of segment k overlaps the
/// receive+accumulate of segment k-1. Payload handles are *forwarded*, not
/// re-materialized — an intermediate hop accumulates its contribution into
/// the received Buffer in place (it is uniquely owned on arrival) and sends
/// the same handle on, so a full all-reduce performs one payload
/// materialization per own-chunk segment instead of one per hop. The
/// reduced owned-chunk buffers from the last reduce-scatter hop are retained
/// and re-circulated as the all-gather's first hop, making it zero-copy.
///
/// Bitwise-identical to RingWeightedAllReduce for the same members/weights:
/// the same additions happen in the same order per element (float addition
/// is commutative), and segmentation only splits the element ranges.
///
/// `data` may be null only when n == 0. Every chunk circulates at least one
/// (possibly empty) segment so the message schedule is uniform even when
/// n < P or n == 0.
///
/// Returns Cancelled when the fabric shuts down, Unavailable when `watch`
/// abandons the reduce, and InvalidArgument for a peer segment that is
/// malformed or out of schedule (short or mismatched control fields, wrong
/// payload length). On any non-OK return `data` holds a partial reduce.
Status SegmentedRingWeightedAllReduce(Endpoint* ep,
                                      const std::vector<NodeId>& members,
                                      const std::vector<double>& weights,
                                      size_t my_index, uint64_t tag,
                                      float* data, size_t n,
                                      size_t segment_floats =
                                          kDefaultSegmentFloats,
                                      const RingWatch* watch = nullptr);

/// \brief Segmented ring all-reduce with per-hop payload compression
/// (DESIGN.md §5i). Same pipelined schedule as the uncompressed segmented
/// ring, but every hop's segment travels as `compressor`'s encoded blob:
/// reduce-scatter hops decode, accumulate their contribution, and re-encode
/// with error feedback; all-gather hops decode into place and forward the
/// *same* blob unchanged, so every member publishes bitwise-identical
/// values. Lossy by design — the per-worker error-feedback residual inside
/// `compressor` carries each encode's error into the worker's next encode
/// at the same element positions.
///
/// `compressor` must be enabled and is this member's private state (one per
/// worker, reused across reduces so residuals accumulate). `watch` and the
/// status codes are as for the uncompressed ring; an undecodable blob is
/// InvalidArgument.
Status SegmentedRingCompressedAllReduce(Endpoint* ep,
                                        const std::vector<NodeId>& members,
                                        const std::vector<double>& weights,
                                        size_t my_index, uint64_t tag,
                                        float* data, size_t n,
                                        Compressor* compressor,
                                        size_t segment_floats =
                                            kDefaultSegmentFloats,
                                        const RingWatch* watch = nullptr);

/// \brief The single dispatch point strategies use for a group's weighted
/// reduce. With no compressor (or a disabled one) this is the segmented
/// pipelined ring, bitwise-identical to the unsegmented reference; an
/// enabled compressor selects the compressed ring, which reuses the same
/// segmented schedule with encoded payloads. `watch` reaches either ring.
Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag, float* data,
                              size_t n, Compressor* compressor = nullptr,
                              const RingWatch* watch = nullptr);

/// Compatibility overload over a whole vector.
Status GroupWeightedAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                              const std::vector<double>& weights,
                              size_t my_index, uint64_t tag,
                              std::vector<float>* data,
                              Compressor* compressor = nullptr);

/// \brief Uniform-average (weights = 1/P) dispatch, the All-Reduce
/// strategy's entry point.
Status GroupAverageAllReduce(Endpoint* ep, const std::vector<NodeId>& members,
                             size_t my_index, uint64_t tag, float* data,
                             size_t n, Compressor* compressor = nullptr);

}  // namespace pr
