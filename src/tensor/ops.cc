#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "common/simd.h"

namespace pr {

namespace {

// ---------------------------------------------------------------------------
// GEMM kernels. Every output element is one add chain: start at +0, then add
// its terms in ascending k order. The kernels keep that order and vectorize
// only across output columns, so each lane does the scalar multiply and the
// scalar add (no FMA, see common/simd.h) and the results match the textbook
// loops bit for bit.
// ---------------------------------------------------------------------------

// Eight float lanes: one ymm register in the AVX2 clone, two SSE halves in
// the baseline one. Vectors never cross a call boundary (the helpers below
// are always inlined into a clone), so the two clones share no vector ABI.
typedef float Vec __attribute__((vector_size(32)));
constexpr size_t kLanes = 8;
// NN and TN register tiles: one output row by eight vectors (64 columns).
constexpr size_t kSparseVecs = 8;
constexpr size_t kSparseTile = kSparseVecs * kLanes;
// NT register tiles: four vectors (32 columns), so a packed [k, 32] panel of
// B^T stays in L1 up to k = 256.
constexpr size_t kPanelVecs = 4;
constexpr size_t kPanelTile = kPanelVecs * kLanes;
// Rows whose terms are collected before the column strips sweep over them,
// so each strip is read from cache by up to 32 rows in a row.
constexpr size_t kRowBlock = 32;
// Below this many rows of A, tiling does not pay for its set-up: NN and TN
// stream B once through output rows held in L1, and NT gathers columns of B
// in registers instead of copying a transposed panel.
constexpr size_t kTileMinRows = 8;

// One term of an output row's add chain: A's element and the B row it scales.
struct Term {
  float a;
  uint32_t row;
};

// Stores the first `width` lanes of acc[0, V): whole vectors directly, the
// last partial one lane by lane. Both loops are unrolled so that every index
// into `acc` is a constant and the accumulators stay in registers.
template <size_t V>
[[gnu::always_inline]] inline void StoreLanes(const Vec* acc, size_t width,
                                              float* out) {
#pragma GCC unroll 8
  for (size_t v = 0; v < V; ++v) {
    const size_t base = v * kLanes;
    if (base + kLanes <= width) {
      std::memcpy(out + base, &acc[v], sizeof(Vec));
    } else if (base < width) {
      float lanes[kLanes];
      std::memcpy(lanes, &acc[v], sizeof(lanes));
#pragma GCC unroll 8
      for (size_t l = 0; l < kLanes - 1; ++l) {
        if (base + l < width) out[base + l] = lanes[l];
      }
    }
  }
}

// out[0, width) = sum over t of terms[t].a * b[terms[t].row * ldb + ...],
// computed over V vectors (width <= V lanes).
template <size_t V>
[[gnu::always_inline]] inline void SparseTile(const Term* terms, size_t count,
                                              const float* b, size_t ldb,
                                              size_t width, float* out) {
  Vec acc[V] = {};
  for (size_t t = 0; t < count; ++t) {
    const float e = terms[t].a;
    const Vec s = {e, e, e, e, e, e, e, e};
    const float* brow = b + terms[t].row * ldb;
    for (size_t v = 0; v < V; ++v) {
      Vec x;
      std::memcpy(&x, brow + v * kLanes, sizeof(x));
      acc[v] += s * x;
    }
  }
  StoreLanes<V>(acc, width, out);
}

// out[0, width) = sum over p < k of a[p] * panel[p * V lanes + ...].
template <size_t V>
[[gnu::always_inline]] inline void DenseTile(const float* a, size_t k,
                                             const float* panel, size_t width,
                                             float* out) {
  Vec acc[V] = {};
  for (size_t p = 0; p < k; ++p) {
    const float e = a[p];
    const Vec s = {e, e, e, e, e, e, e, e};
    for (size_t v = 0; v < V; ++v) {
      Vec x;
      std::memcpy(&x, panel + (p * V + v) * kLanes, sizeof(x));
      acc[v] += s * x;
    }
  }
  StoreLanes<V>(acc, width, out);
}

// The narrower last tile of a row: `vecs` (1..sizeof...(V)) vectors over a
// zero-padded panel whose rows are `vecs` vectors long.
template <size_t... V>
[[gnu::always_inline]] inline void SparseTileTail(
    size_t vecs, size_t width, const Term* terms, size_t count,
    const float* panel, float* out, std::index_sequence<V...>) {
  ((vecs == V + 1 ? SparseTile<V + 1>(terms, count, panel, (V + 1) * kLanes,
                                      width, out)
                  : void()),
   ...);
}

template <size_t... V>
[[gnu::always_inline]] inline void DenseTileTail(size_t vecs, size_t width,
                                                 const float* a, size_t k,
                                                 const float* panel,
                                                 float* out,
                                                 std::index_sequence<V...>) {
  ((vecs == V + 1 ? DenseTile<V + 1>(a, k, panel, width, out) : void()), ...);
}

// R rows of A times kLanes rows of B (transposed): each step gathers one
// column of the B rows into a vector, so B is read once per R rows of A
// and never copied.
template <size_t R>
[[gnu::always_inline]] inline void GatherTile(const float* a, size_t k,
                                              const float* const* brows,
                                              size_t width, float* out,
                                              size_t ldo) {
  Vec acc[R] = {};
  for (size_t p = 0; p < k; ++p) {
    const Vec col = {brows[0][p], brows[1][p], brows[2][p], brows[3][p],
                     brows[4][p], brows[5][p], brows[6][p], brows[7][p]};
    for (size_t r = 0; r < R; ++r) {
      const float e = a[r * k + p];
      acc[r] += Vec{e, e, e, e, e, e, e, e} * col;
    }
  }
  for (size_t r = 0; r < R; ++r) StoreLanes<1>(&acc[r], width, out + r * ldo);
}

// out [m,n] = A * B for B [k,n] and A's element (i, p) at
// a[i * row_stride + p * col_stride], skipping the terms where it is zero.
PR_SIMD_KERNEL void GemmSkipZero(const float* a, size_t row_stride,
                                 size_t col_stride, const float* b, size_t m,
                                 size_t k, size_t n, float* out) {
  if (m < kTileMinRows) {
    // Few rows: stream B once, each row of it into every output row.
    std::fill(out, out + m * n, 0.0f);
    for (size_t p = 0; p < k; ++p) {
      const float* brow = b + p * n;
      for (size_t i = 0; i < m; ++i) {
        const float x = a[i * row_stride + p * col_stride];
        if (x == 0.0f) continue;
        float* orow = out + i * n;
        for (size_t j = 0; j < n; ++j) orow[j] += x * brow[j];
      }
    }
    return;
  }
  // Copy B once into contiguous [k, 64] strips (the last one narrower and
  // zero-padded to whole vectors): rows of B a power of two apart would
  // otherwise all compete for one cache set.
  const size_t padded = (n + kLanes - 1) / kLanes * kLanes;
  const auto strips = std::make_unique_for_overwrite<float[]>(k * padded);
  for (size_t j = 0; j < n; j += kSparseTile) {
    const size_t width = std::min(kSparseTile, n - j);
    const size_t ld = (width + kLanes - 1) / kLanes * kLanes;
    float* strip = strips.get() + k * j;
    for (size_t p = 0; p < k; ++p) {
      std::memcpy(strip + p * ld, b + p * n + j, width * sizeof(float));
      std::fill(strip + p * ld + width, strip + (p + 1) * ld, 0.0f);
    }
  }
  const auto terms = std::make_unique_for_overwrite<Term[]>(kRowBlock * k);
  size_t counts[kRowBlock] = {};
  for (size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const size_t rows = std::min(kRowBlock, m - i0);
    for (size_t r = 0; r < rows; ++r) {
      // Branch-free compaction: every element is written, only nonzeros
      // (NaN included) advance the cursor.
      const float* arow = a + (i0 + r) * row_stride;
      Term* t = terms.get() + r * k;
      size_t c = 0;
      for (size_t p = 0; p < k; ++p) {
        const float x = arow[p * col_stride];
        t[c] = {x, static_cast<uint32_t>(p)};
        c += (x != 0.0f);
      }
      counts[r] = c;
    }
    for (size_t j = 0; j < n; j += kSparseTile) {
      const size_t width = std::min(kSparseTile, n - j);
      const size_t vecs = (width + kLanes - 1) / kLanes;
      const float* strip = strips.get() + k * j;
      for (size_t r = 0; r < rows; ++r) {
        float* o = out + (i0 + r) * n + j;
        if (vecs == kSparseVecs) {
          SparseTile<kSparseVecs>(terms.get() + r * k, counts[r], strip,
                                  kSparseTile, width, o);
        } else {
          SparseTileTail(vecs, width, terms.get() + r * k, counts[r], strip, o,
                         std::make_index_sequence<kSparseVecs>());
        }
      }
    }
  }
}

// out [m,n] = A * B^T for A [m,k] and B [n,k]; no term is skipped.
PR_SIMD_KERNEL void GemmTransB(const float* a, const float* b, size_t m,
                               size_t k, size_t n, float* out) {
  if (m < kTileMinRows) {
    // Few rows: gather B's columns in registers rather than copy a panel.
    for (size_t j = 0; j < n; j += kLanes) {
      const size_t width = std::min(kLanes, n - j);
      // Past the last row of B, repeat it; those lanes are never stored.
      const float* brows[kLanes];
      for (size_t l = 0; l < kLanes; ++l) {
        brows[l] = b + std::min(j + l, n - 1) * k;
      }
      size_t i = 0;
      for (; i + 2 <= m; i += 2) {
        GatherTile<2>(a + i * k, k, brows, width, out + i * n + j, n);
      }
      if (i < m) GatherTile<1>(a + i * k, k, brows, width, out + i * n + j, n);
    }
    return;
  }
  const auto panel = std::make_unique_for_overwrite<float[]>(k * kPanelTile);
  for (size_t j = 0; j < n; j += kPanelTile) {
    const size_t width = std::min(kPanelTile, n - j);
    const size_t vecs = (width + kLanes - 1) / kLanes;
    const size_t ld = vecs * kLanes;
    // Transpose rows j.. of B into a [k, ld] panel, zero-padded.
    for (size_t c = 0; c < ld; ++c) {
      if (c < width) {
        const float* brow = b + (j + c) * k;
        for (size_t p = 0; p < k; ++p) panel[p * ld + c] = brow[p];
      } else {
        for (size_t p = 0; p < k; ++p) panel[p * ld + c] = 0.0f;
      }
    }
    for (size_t i = 0; i < m; ++i) {
      if (width == kPanelTile) {
        DenseTile<kPanelVecs>(a + i * k, k, panel.get(), kPanelTile,
                              out + i * n + j);
      } else {
        DenseTileTail(vecs, width, a + i * k, k, panel.get(),
                      out + i * n + j, std::make_index_sequence<kPanelVecs>());
      }
    }
  }
}

void CheckGemmArgs(const float* a, const float* b, size_t m, size_t k,
                   size_t n, const float* out) {
  PR_CHECK(a != nullptr || m * k == 0);
  PR_CHECK(b != nullptr || k * n == 0);
  PR_CHECK(out != nullptr || m * n == 0);
  PR_CHECK_LE(k, static_cast<size_t>(UINT32_MAX));
}

}  // namespace

void GemmNN(const float* a, const float* b, size_t m, size_t k, size_t n,
            float* out) {
  CheckGemmArgs(a, b, m, k, n, out);
  GemmSkipZero(a, /*row_stride=*/k, /*col_stride=*/1, b, m, k, n, out);
}

void GemmNT(const float* a, const float* b, size_t m, size_t k, size_t n,
            float* out) {
  CheckGemmArgs(a, b, m, k, n, out);
  GemmTransB(a, b, m, k, n, out);
}

void GemmTN(const float* a, const float* b, size_t m, size_t k, size_t n,
            float* out) {
  CheckGemmArgs(a, b, m, k, n, out);
  GemmSkipZero(a, /*row_stride=*/1, /*col_stride=*/m, b, m, k, n, out);
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* out) {
  PR_CHECK_EQ(b.rank(), 2u);
  MatMulSpan(a, b.data(), b.rows(), b.cols(), out);
}

void MatMulTransB(const Tensor& a, const Tensor& b, Tensor* out) {
  PR_CHECK_EQ(b.rank(), 2u);
  MatMulTransBSpan(a, b.data(), b.rows(), b.cols(), out);
}

void MatMulTransA(const Tensor& a, const Tensor& b, Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK_EQ(a.rank(), 2u);
  PR_CHECK_EQ(b.rank(), 2u);
  PR_CHECK_EQ(a.rows(), b.rows());
  out->Reshape(a.cols(), b.cols());
  GemmTN(a.data(), b.data(), a.cols(), a.rows(), b.cols(), out->data());
}

void MatMulSpan(const Tensor& a, const float* b, size_t k, size_t n,
                Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK_EQ(a.rank(), 2u);
  PR_CHECK_EQ(a.cols(), k);
  out->Reshape(a.rows(), n);
  GemmNN(a.data(), b, a.rows(), k, n, out->data());
}

void MatMulTransBSpan(const Tensor& a, const float* b, size_t n, size_t k,
                      Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK_EQ(a.rank(), 2u);
  PR_CHECK_EQ(a.cols(), k);
  out->Reshape(a.rows(), n);
  GemmNT(a.data(), b, a.rows(), k, n, out->data());
}

void AddBiasRowsSpan(const float* bias, size_t n, Tensor* m) {
  PR_CHECK(m != nullptr);
  PR_CHECK(bias != nullptr);
  PR_CHECK_EQ(m->rank(), 2u);
  PR_CHECK_EQ(m->cols(), n);
  for (size_t r = 0; r < m->rows(); ++r) {
    Axpy(1.0f, bias, m->Row(r), n);
  }
}

void Axpy(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(float alpha, float* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

float Dot(const float* x, const float* y, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

float Norm2(const float* x, size_t n) {
  // Accumulate in double: gradient norms feed convergence diagnostics and
  // float accumulation loses precision past ~1e7 elements.
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
  return static_cast<float>(std::sqrt(s));
}

void AddBiasRows(const Tensor& bias, Tensor* m) {
  PR_CHECK(m != nullptr);
  PR_CHECK_EQ(bias.rank(), 1u);
  PR_CHECK_EQ(m->rank(), 2u);
  PR_CHECK_EQ(bias.size(), m->cols());
  for (size_t r = 0; r < m->rows(); ++r) {
    Axpy(1.0f, bias.data(), m->Row(r), m->cols());
  }
}

void ReluForward(Tensor* t) {
  PR_CHECK(t != nullptr);
  float* p = t->data();
  for (size_t i = 0; i < t->size(); ++i) p[i] = std::max(p[i], 0.0f);
}

void ReluBackward(const Tensor& activation, Tensor* grad) {
  PR_CHECK(grad != nullptr);
  PR_CHECK(activation.SameShape(*grad));
  const float* a = activation.data();
  float* g = grad->data();
  for (size_t i = 0; i < grad->size(); ++i) {
    if (a[i] <= 0.0f) g[i] = 0.0f;
  }
}

void SoftmaxRows(const Tensor& logits, Tensor* out) {
  PR_CHECK(out != nullptr);
  PR_CHECK_EQ(logits.rank(), 2u);
  *out = Tensor(logits.rows(), logits.cols());
  const size_t n = logits.cols();
  for (size_t r = 0; r < logits.rows(); ++r) {
    const float* in = logits.Row(r);
    float* o = out->Row(r);
    float mx = in[0];
    for (size_t j = 1; j < n; ++j) mx = std::max(mx, in[j]);
    float sum = 0.0f;
    for (size_t j = 0; j < n; ++j) {
      o[j] = std::exp(in[j] - mx);
      sum += o[j];
    }
    const float inv = 1.0f / sum;
    for (size_t j = 0; j < n; ++j) o[j] *= inv;
  }
}

float CrossEntropyFromProbs(const Tensor& probs,
                            const std::vector<int>& labels,
                            Tensor* grad_logits) {
  PR_CHECK_EQ(probs.rank(), 2u);
  PR_CHECK_EQ(probs.rows(), labels.size());
  const size_t batch = probs.rows();
  const size_t classes = probs.cols();
  constexpr float kEps = 1e-12f;
  double loss = 0.0;
  if (grad_logits != nullptr) *grad_logits = Tensor(batch, classes);
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (size_t r = 0; r < batch; ++r) {
    const int label = labels[r];
    PR_CHECK_GE(label, 0);
    PR_CHECK_LT(static_cast<size_t>(label), classes);
    const float* p = probs.Row(r);
    loss -= std::log(static_cast<double>(p[label]) + kEps);
    if (grad_logits != nullptr) {
      float* g = grad_logits->Row(r);
      for (size_t j = 0; j < classes; ++j) g[j] = p[j] * inv_batch;
      g[label] -= inv_batch;
    }
  }
  return static_cast<float>(loss / static_cast<double>(batch));
}

std::vector<int> ArgmaxRows(const Tensor& scores) {
  PR_CHECK_EQ(scores.rank(), 2u);
  std::vector<int> out(scores.rows());
  for (size_t r = 0; r < scores.rows(); ++r) {
    const float* row = scores.Row(r);
    int best = 0;
    for (size_t j = 1; j < scores.cols(); ++j) {
      if (row[j] > row[best]) best = static_cast<int>(j);
    }
    out[r] = best;
  }
  return out;
}

}  // namespace pr
