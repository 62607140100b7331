// Per-sample neural-network layers with manual backprop. Each layer owns
// its parameters and gradient accumulator; models flatten them into one
// parameter vector for the FL machinery (clipping and noising operate on
// flat model deltas).

#ifndef ULDP_NN_LAYERS_H_
#define ULDP_NN_LAYERS_H_

#include <cstddef>
#include <memory>

#include "common/rng.h"
#include "nn/tensor.h"

namespace uldp {

/// Layer interface. Forward caches whatever Backward needs (single-sample
/// state; training loops are sequential per sample).
class Layer {
 public:
  virtual ~Layer() = default;

  virtual size_t in_dim() const = 0;
  virtual size_t out_dim() const = 0;
  virtual size_t num_params() const { return 0; }

  /// Copies this layer's parameters into params[offset...]; returns the
  /// number of values written.
  virtual size_t ReadParams(Vec& params, size_t offset) const;
  /// Loads parameters from params[offset...]; returns values consumed.
  virtual size_t WriteParams(const Vec& params, size_t offset);
  /// Adds the accumulated gradient into grad[offset...]; returns count.
  virtual size_t ReadGrad(Vec& grad, size_t offset) const;
  /// Zeroes the gradient accumulator.
  virtual void ZeroGrad() {}
  /// Random init (He-style for layers with weights).
  virtual void InitParams(Rng& rng);

  virtual void Forward(const Vec& in, Vec* out) = 0;
  /// dout: gradient w.r.t. this layer's output. din: filled with gradient
  /// w.r.t. the input. Parameter gradients are accumulated internally.
  virtual void Backward(const Vec& dout, Vec* din) = 0;
};

/// Fully connected: out = W*in + b.
class LinearLayer final : public Layer {
 public:
  LinearLayer(size_t in_dim, size_t out_dim);

  size_t in_dim() const override { return in_dim_; }
  size_t out_dim() const override { return out_dim_; }
  size_t num_params() const override { return in_dim_ * out_dim_ + out_dim_; }

  size_t ReadParams(Vec& params, size_t offset) const override;
  size_t WriteParams(const Vec& params, size_t offset) override;
  size_t ReadGrad(Vec& grad, size_t offset) const override;
  void ZeroGrad() override;
  void InitParams(Rng& rng) override;

  void Forward(const Vec& in, Vec* out) override;
  void Backward(const Vec& dout, Vec* din) override;

 private:
  size_t in_dim_;
  size_t out_dim_;
  Matrix weight_;       // out x in
  Vec bias_;            // out
  Matrix weight_grad_;  // accumulated
  Vec bias_grad_;
  Vec last_in_;
};

/// Element-wise ReLU.
class ReluLayer final : public Layer {
 public:
  explicit ReluLayer(size_t dim) : dim_(dim) {}

  size_t in_dim() const override { return dim_; }
  size_t out_dim() const override { return dim_; }

  void Forward(const Vec& in, Vec* out) override;
  void Backward(const Vec& dout, Vec* din) override;

 private:
  size_t dim_;
  Vec last_in_;
};

/// 2D convolution, kernel 3x3, stride 1, zero padding 1 (shape-preserving).
/// Input layout: channels x height x width, flattened row-major.
class Conv3x3Layer final : public Layer {
 public:
  Conv3x3Layer(size_t in_channels, size_t out_channels, size_t height,
               size_t width);

  size_t in_dim() const override { return in_channels_ * height_ * width_; }
  size_t out_dim() const override { return out_channels_ * height_ * width_; }
  size_t num_params() const override {
    return out_channels_ * in_channels_ * 9 + out_channels_;
  }

  size_t ReadParams(Vec& params, size_t offset) const override;
  size_t WriteParams(const Vec& params, size_t offset) override;
  size_t ReadGrad(Vec& grad, size_t offset) const override;
  void ZeroGrad() override;
  void InitParams(Rng& rng) override;

  void Forward(const Vec& in, Vec* out) override;
  void Backward(const Vec& dout, Vec* din) override;

 private:
  size_t in_channels_, out_channels_, height_, width_;
  Vec kernel_;       // oc x ic x 3 x 3
  Vec bias_;         // oc
  Vec kernel_grad_;
  Vec bias_grad_;
  Vec last_in_;
};

/// 2x2 max pooling, stride 2. Requires even height/width.
class MaxPool2Layer final : public Layer {
 public:
  MaxPool2Layer(size_t channels, size_t height, size_t width);

  size_t in_dim() const override { return channels_ * height_ * width_; }
  size_t out_dim() const override {
    return channels_ * (height_ / 2) * (width_ / 2);
  }

  void Forward(const Vec& in, Vec* out) override;
  void Backward(const Vec& dout, Vec* din) override;

 private:
  size_t channels_, height_, width_;
  std::vector<size_t> argmax_;
};

}  // namespace uldp

#endif  // ULDP_NN_LAYERS_H_
