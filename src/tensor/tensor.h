#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace pr {

/// \brief A dense row-major float32 tensor of rank 1 or 2.
///
/// This is the numeric workhorse for the from-scratch NN substrate: model
/// parameters, activations and gradients are Tensors. Rank-2 tensors are
/// matrices `[rows, cols]`; rank-1 tensors are vectors `[n]`. The class is a
/// plain value type (copyable, movable) over a contiguous buffer.
class Tensor {
 public:
  /// Constructs an empty tensor (rank 0, no storage).
  Tensor() = default;

  /// Constructs a zero-filled vector of length `n`.
  explicit Tensor(size_t n) : shape_{n}, data_(n, 0.0f) {}

  /// Constructs a zero-filled `rows x cols` matrix.
  Tensor(size_t rows, size_t cols)
      : shape_{rows, cols}, data_(rows * cols, 0.0f) {}

  /// Constructs a vector from explicit values.
  static Tensor FromVector(std::vector<float> values);

  /// Constructs a matrix from explicit row-major values.
  /// Requires `values.size() == rows * cols`.
  static Tensor FromMatrix(size_t rows, size_t cols,
                           std::vector<float> values);

  size_t rank() const { return shape_.size(); }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Number of rows; the length for a vector.
  size_t rows() const {
    PR_CHECK_GE(rank(), 1u);
    return shape_[0];
  }
  /// Number of columns; 1 for a vector.
  size_t cols() const { return rank() >= 2 ? shape_[1] : 1; }

  const std::vector<size_t>& shape() const { return shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Element access for vectors.
  float& operator[](size_t i) {
    PR_CHECK_LT(i, data_.size());
    return data_[i];
  }
  float operator[](size_t i) const {
    PR_CHECK_LT(i, data_.size());
    return data_[i];
  }

  /// Element access for matrices.
  float& At(size_t r, size_t c) {
    PR_CHECK_EQ(rank(), 2u);
    PR_CHECK_LT(r, shape_[0]);
    PR_CHECK_LT(c, shape_[1]);
    return data_[r * shape_[1] + c];
  }
  float At(size_t r, size_t c) const {
    PR_CHECK_EQ(rank(), 2u);
    PR_CHECK_LT(r, shape_[0]);
    PR_CHECK_LT(c, shape_[1]);
    return data_[r * shape_[1] + c];
  }

  /// Pointer to the start of row `r` of a matrix.
  float* Row(size_t r) {
    PR_CHECK_EQ(rank(), 2u);
    PR_CHECK_LT(r, shape_[0]);
    return data_.data() + r * shape_[1];
  }
  const float* Row(size_t r) const {
    PR_CHECK_EQ(rank(), 2u);
    PR_CHECK_LT(r, shape_[0]);
    return data_.data() + r * shape_[1];
  }

  /// Makes this a `rows x cols` matrix, keeping the storage when it is
  /// large enough. Element values are unspecified afterwards: this is for
  /// outputs that the caller overwrites in full.
  void Reshape(size_t rows, size_t cols) {
    shape_ = {rows, cols};
    data_.resize(rows * cols);
  }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// Fills with N(0, stddev) draws; the standard dense-layer initializer.
  void FillNormal(Rng* rng, float stddev);

  /// Fills with U(-limit, limit) draws.
  void FillUniform(Rng* rng, float limit);

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Pretty-prints shape and a few leading values (debugging aid).
  std::string ToString() const;

 private:
  std::vector<size_t> shape_;
  std::vector<float> data_;
};

}  // namespace pr
