#pragma once

#include <memory>
#include <vector>

#include "models/model.h"

namespace pr {

/// \brief A fully connected ReLU network with softmax cross-entropy loss.
///
/// Layer sizes are [input_dim, hidden..., num_classes]; an empty `hidden`
/// list yields plain softmax regression. Backprop is hand-written (no
/// autograd): for each layer we keep post-activation values from the forward
/// pass and chain gradients through the TN and NT GEMM kernels.
///
/// Parameter layout in the flat vector, layer by layer:
///   W_0 [in, h0] row-major, b_0 [h0], W_1 [h0, h1], b_1 [h1], ...
class Mlp : public Model {
 public:
  /// Builds an MLP for `input_dim` features and `num_classes` outputs with
  /// the given hidden widths.
  Mlp(size_t input_dim, std::vector<size_t> hidden, int num_classes);

  size_t NumParams() const override { return num_params_; }
  std::string Name() const override;
  std::vector<LayerExtent> LayerLayout() const override;
  void InitParams(std::vector<float>* params, Rng* rng) const override;
  float LossAndGradient(const float* params, const Tensor& x,
                        const std::vector<int>& y,
                        float* grad) const override;
  void Scores(const float* params, const Tensor& x,
              Tensor* scores) const override;
  int NumClasses() const override { return num_classes_; }

  /// Convenience factory for softmax regression (no hidden layers).
  static std::unique_ptr<Mlp> SoftmaxRegression(size_t input_dim,
                                                int num_classes);

 private:
  struct LayerOffsets {
    size_t w;       ///< offset of the weight matrix in the flat vector
    size_t b;       ///< offset of the bias vector
    size_t in;      ///< fan-in
    size_t out;     ///< fan-out
  };

  /// Runs the forward pass; `acts[l]` receives the post-activation output of
  /// layer l (logits for the last layer, ReLU outputs before).
  void Forward(const float* params, const Tensor& x,
               std::vector<Tensor>* acts) const;

  size_t input_dim_;
  int num_classes_;
  std::vector<size_t> widths_;  ///< [input_dim, hidden..., classes]
  std::vector<LayerOffsets> layers_;
  size_t num_params_ = 0;
};

}  // namespace pr
