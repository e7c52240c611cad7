#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"

namespace pr {
namespace {

// ---------------------------------------------------------------------------
// Reference loops: the scalar i-k-j and dot-product forms the tiled kernels
// replaced. Each output element is one add chain from +0 in ascending k.
// ---------------------------------------------------------------------------

std::vector<float> RefNN(const std::vector<float>& a,
                         const std::vector<float>& b, size_t m, size_t k,
                         size_t n) {
  std::vector<float> out(m * n, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* orow = out.data() + i * n;
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.data() + p * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

float RefDot(const float* x, const float* y, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

std::vector<float> RefNT(const std::vector<float>& a,
                         const std::vector<float>& b, size_t m, size_t k,
                         size_t n) {
  std::vector<float> out(m * n, 0.0f);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      out[i * n + j] = RefDot(a.data() + i * k, b.data() + j * k, k);
    }
  }
  return out;
}

std::vector<float> RefTN(const std::vector<float>& a,
                         const std::vector<float>& b, size_t m, size_t k,
                         size_t n) {
  std::vector<float> out(m * n, 0.0f);
  for (size_t p = 0; p < k; ++p) {
    const float* arow = a.data() + p * m;
    const float* brow = b.data() + p * n;
    for (size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* orow = out.data() + i * n;
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

/// Normal draws salted with exact +0 and -0 (so the zero-skip is
/// exercised) and subnormals.
std::vector<float> Operand(size_t size, Rng* rng) {
  std::vector<float> v(size);
  for (size_t i = 0; i < size; ++i) {
    switch (rng->UniformInt(uint64_t{8})) {
      case 0: v[i] = 0.0f; break;
      case 1: v[i] = -0.0f; break;
      case 2: v[i] = (rng->Uniform() < 0.5 ? 1 : -1) * 3e-39f; break;
      default: v[i] = static_cast<float>(rng->Normal()); break;
    }
  }
  return v;
}

/// Overwrites row `row` of a [rows, cols] matrix with inf, -inf and NaN.
void PoisonRow(std::vector<float>* v, size_t row, size_t cols) {
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (size_t j = 0; j < cols; ++j) (*v)[row * cols + j] = specials[j % 3];
}

/// Bit patterns, with every NaN folded to one: which NaN an add of two
/// NaNs propagates depends on operand order, which a compiler may commute.
std::vector<uint32_t> Bits(const std::vector<float>& v) {
  std::vector<uint32_t> bits(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    bits[i] = std::isnan(v[i]) ? 0x7fc00000u : std::bit_cast<uint32_t>(v[i]);
  }
  return bits;
}

const size_t kDims[] = {1, 2, 7, 8, 9, 31, 32, 33, 65, 257};

enum class Kind { kNN, kNT, kTN };

// Every (m, k, n) over kDims; B carries one inf/NaN row.
void CheckAllShapes(Kind kind) {
  for (size_t m : kDims) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        Rng rng(m * 1000003 + k * 1009 + n);
        const std::vector<float> a = Operand(m * k, &rng);
        std::vector<float> b = Operand(k * n, &rng);
        std::vector<float> got(m * n, std::nanf("1"));
        std::vector<float> want;
        switch (kind) {
          case Kind::kNN:
            PoisonRow(&b, k / 2, n);
            GemmNN(a.data(), b.data(), m, k, n, got.data());
            want = RefNN(a, b, m, k, n);
            break;
          case Kind::kNT:
            PoisonRow(&b, n / 2, k);
            GemmNT(a.data(), b.data(), m, k, n, got.data());
            want = RefNT(a, b, m, k, n);
            break;
          case Kind::kTN:
            PoisonRow(&b, k / 2, n);
            GemmTN(a.data(), b.data(), m, k, n, got.data());
            want = RefTN(a, b, m, k, n);
            break;
        }
        ASSERT_EQ(Bits(got), Bits(want))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(GemmKernelTest, NNMatchesReferenceBitForBit) { CheckAllShapes(Kind::kNN); }

TEST(GemmKernelTest, NTMatchesReferenceBitForBit) { CheckAllShapes(Kind::kNT); }

TEST(GemmKernelTest, TNMatchesReferenceBitForBit) { CheckAllShapes(Kind::kTN); }

TEST(GemmKernelTest, SkipsZeroTermsOfAButNotOfDotProducts) {
  // 0 * inf is NaN: NN and TN drop the term (a == 0, either sign), NT keeps
  // it, exactly like the loops they replaced.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> a = {-0.0f, 2.0f};  // [1,2] for NN, [2,1] for TN
  const std::vector<float> b = {inf, 3.0f};    // [2,1] for NN and TN
  float out = 0.0f;
  GemmNN(a.data(), b.data(), 1, 2, 1, &out);
  EXPECT_EQ(out, 6.0f);
  GemmTN(a.data(), b.data(), 1, 2, 1, &out);
  EXPECT_EQ(out, 6.0f);
  GemmNT(a.data(), b.data(), 1, 2, 1, &out);  // B [1,2]
  EXPECT_TRUE(std::isnan(out));
}

TEST(GemmKernelTest, SumsStartFromPositiveZero) {
  // A single -0 product: +0 + -0 is +0, so the output is +0, not -0.
  const std::vector<float> a = {-1.0f};
  const std::vector<float> b = {0.0f};
  float out = 1.0f;
  GemmNT(a.data(), b.data(), 1, 1, 1, &out);
  EXPECT_EQ(std::bit_cast<uint32_t>(out), 0u);
  GemmNN(a.data(), b.data(), 1, 1, 1, &out);
  EXPECT_EQ(std::bit_cast<uint32_t>(out), 0u);
}

TEST(GemmKernelTest, EmptyInnerDimensionGivesZeros) {
  // k = 0: every output is the empty sum, +0, on both sides of the
  // small-m threshold; m = 0 or n = 0 writes nothing.
  for (size_t m : {2, 9}) {
    std::vector<float> out(m * 5, std::nanf(""));
    GemmNN(nullptr, nullptr, m, 0, 5, out.data());
    EXPECT_EQ(Bits(out), Bits(std::vector<float>(m * 5, 0.0f)));
    out.assign(m * 5, std::nanf(""));
    GemmNT(nullptr, nullptr, m, 0, 5, out.data());
    EXPECT_EQ(Bits(out), Bits(std::vector<float>(m * 5, 0.0f)));
    out.assign(m * 5, std::nanf(""));
    GemmTN(nullptr, nullptr, m, 0, 5, out.data());
    EXPECT_EQ(Bits(out), Bits(std::vector<float>(m * 5, 0.0f)));
  }
  const std::vector<float> a(12, 1.0f);
  GemmNN(a.data(), a.data(), 0, 3, 4, nullptr);
  GemmNT(a.data(), a.data(), 4, 3, 0, nullptr);
}

TEST(GemmKernelTest, TensorWrappersReuseStaleOutputs) {
  Rng rng(5);
  const size_t m = 9, k = 33, n = 17;
  Tensor a(m, k), b(k, n), bt(n, k), at(k, m);
  a.FillNormal(&rng, 1.0f);
  b.FillNormal(&rng, 1.0f);
  bt.FillNormal(&rng, 1.0f);
  at.FillNormal(&rng, 1.0f);
  auto vec = [](const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.size());
  };
  // Outputs that start with the wrong shape and garbage in them.
  Tensor out = Tensor::FromMatrix(2, 2, {7, 7, 7, 7});
  MatMul(a, b, &out);
  ASSERT_EQ(out.shape(), (std::vector<size_t>{m, n}));
  EXPECT_EQ(Bits(vec(out)), Bits(RefNN(vec(a), vec(b), m, k, n)));
  out.Fill(std::nanf(""));
  MatMulSpan(a, b.data(), k, n, &out);
  EXPECT_EQ(Bits(vec(out)), Bits(RefNN(vec(a), vec(b), m, k, n)));

  Tensor big(40, 40);
  big.Fill(3.0f);
  MatMulTransB(a, bt, &big);
  ASSERT_EQ(big.shape(), (std::vector<size_t>{m, n}));
  EXPECT_EQ(Bits(vec(big)), Bits(RefNT(vec(a), vec(bt), m, k, n)));
  MatMulTransBSpan(a, bt.data(), n, k, &big);
  EXPECT_EQ(Bits(vec(big)), Bits(RefNT(vec(a), vec(bt), m, k, n)));

  Tensor dw;
  MatMulTransA(at, b, &dw);
  ASSERT_EQ(dw.shape(), (std::vector<size_t>{m, n}));
  EXPECT_EQ(Bits(vec(dw)), Bits(RefTN(vec(at), vec(b), m, k, n)));
}

}  // namespace
}  // namespace pr
