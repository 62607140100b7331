#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace uldp {

size_t Layer::ReadParams(Vec&, size_t) const { return 0; }
size_t Layer::WriteParams(const Vec&, size_t) { return 0; }
size_t Layer::ReadGrad(Vec&, size_t) const { return 0; }
void Layer::InitParams(Rng&) {}

// ---- LinearLayer -----------------------------------------------------------

LinearLayer::LinearLayer(size_t in_dim, size_t out_dim)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(out_dim, in_dim),
      bias_(out_dim, 0.0),
      weight_grad_(out_dim, in_dim),
      bias_grad_(out_dim, 0.0) {}

size_t LinearLayer::ReadParams(Vec& params, size_t offset) const {
  ULDP_CHECK_LE(offset + num_params(), params.size());
  std::copy(weight_.data().begin(), weight_.data().end(),
            params.begin() + offset);
  std::copy(bias_.begin(), bias_.end(),
            params.begin() + offset + weight_.data().size());
  return num_params();
}

size_t LinearLayer::WriteParams(const Vec& params, size_t offset) {
  ULDP_CHECK_LE(offset + num_params(), params.size());
  std::copy(params.begin() + offset,
            params.begin() + offset + weight_.data().size(),
            weight_.data().begin());
  std::copy(params.begin() + offset + weight_.data().size(),
            params.begin() + offset + num_params(), bias_.begin());
  return num_params();
}

size_t LinearLayer::ReadGrad(Vec& grad, size_t offset) const {
  ULDP_CHECK_LE(offset + num_params(), grad.size());
  for (size_t i = 0; i < weight_grad_.data().size(); ++i) {
    grad[offset + i] += weight_grad_.data()[i];
  }
  for (size_t i = 0; i < bias_grad_.size(); ++i) {
    grad[offset + weight_grad_.data().size() + i] += bias_grad_[i];
  }
  return num_params();
}

void LinearLayer::ZeroGrad() {
  std::fill(weight_grad_.data().begin(), weight_grad_.data().end(), 0.0);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0);
}

void LinearLayer::InitParams(Rng& rng) {
  // He initialization: N(0, 2/in_dim).
  double stddev = std::sqrt(2.0 / static_cast<double>(in_dim_));
  for (double& w : weight_.data()) w = rng.Gaussian(0.0, stddev);
  std::fill(bias_.begin(), bias_.end(), 0.0);
}

void LinearLayer::Forward(const Vec& in, Vec* out) {
  last_in_ = in;
  weight_.MatVec(in, out);
  for (size_t i = 0; i < out_dim_; ++i) (*out)[i] += bias_[i];
}

void LinearLayer::Backward(const Vec& dout, Vec* din) {
  ULDP_CHECK_EQ(dout.size(), out_dim_);
  // dW += dout * in^T ; db += dout ; din = W^T dout.
  for (size_t r = 0; r < out_dim_; ++r) {
    double d = dout[r];
    double* grow = &weight_grad_.data()[r * in_dim_];
    for (size_t c = 0; c < in_dim_; ++c) grow[c] += d * last_in_[c];
    bias_grad_[r] += d;
  }
  weight_.MatTVec(dout, din);
}

// ---- ReluLayer -------------------------------------------------------------

void ReluLayer::Forward(const Vec& in, Vec* out) {
  ULDP_CHECK_EQ(in.size(), dim_);
  last_in_ = in;
  out->resize(dim_);
  for (size_t i = 0; i < dim_; ++i) (*out)[i] = in[i] > 0.0 ? in[i] : 0.0;
}

void ReluLayer::Backward(const Vec& dout, Vec* din) {
  din->resize(dim_);
  for (size_t i = 0; i < dim_; ++i) {
    (*din)[i] = last_in_[i] > 0.0 ? dout[i] : 0.0;
  }
}

// ---- Conv3x3Layer ----------------------------------------------------------

Conv3x3Layer::Conv3x3Layer(size_t in_channels, size_t out_channels,
                           size_t height, size_t width)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      height_(height),
      width_(width),
      kernel_(out_channels * in_channels * 9, 0.0),
      bias_(out_channels, 0.0),
      kernel_grad_(kernel_.size(), 0.0),
      bias_grad_(out_channels, 0.0) {}

size_t Conv3x3Layer::ReadParams(Vec& params, size_t offset) const {
  ULDP_CHECK_LE(offset + num_params(), params.size());
  std::copy(kernel_.begin(), kernel_.end(), params.begin() + offset);
  std::copy(bias_.begin(), bias_.end(),
            params.begin() + offset + kernel_.size());
  return num_params();
}

size_t Conv3x3Layer::WriteParams(const Vec& params, size_t offset) {
  ULDP_CHECK_LE(offset + num_params(), params.size());
  std::copy(params.begin() + offset, params.begin() + offset + kernel_.size(),
            kernel_.begin());
  std::copy(params.begin() + offset + kernel_.size(),
            params.begin() + offset + num_params(), bias_.begin());
  return num_params();
}

size_t Conv3x3Layer::ReadGrad(Vec& grad, size_t offset) const {
  ULDP_CHECK_LE(offset + num_params(), grad.size());
  for (size_t i = 0; i < kernel_grad_.size(); ++i) {
    grad[offset + i] += kernel_grad_[i];
  }
  for (size_t i = 0; i < bias_grad_.size(); ++i) {
    grad[offset + kernel_grad_.size() + i] += bias_grad_[i];
  }
  return num_params();
}

void Conv3x3Layer::ZeroGrad() {
  std::fill(kernel_grad_.begin(), kernel_grad_.end(), 0.0);
  std::fill(bias_grad_.begin(), bias_grad_.end(), 0.0);
}

void Conv3x3Layer::InitParams(Rng& rng) {
  double stddev = std::sqrt(2.0 / static_cast<double>(in_channels_ * 9));
  for (double& w : kernel_) w = rng.Gaussian(0.0, stddev);
  std::fill(bias_.begin(), bias_.end(), 0.0);
}

void Conv3x3Layer::Forward(const Vec& in, Vec* out) {
  ULDP_CHECK_EQ(in.size(), in_dim());
  last_in_ = in;
  out->assign(out_dim(), 0.0);
  const size_t hw = height_ * width_;
  for (size_t oc = 0; oc < out_channels_; ++oc) {
    for (size_t r = 0; r < height_; ++r) {
      for (size_t c = 0; c < width_; ++c) {
        double acc = bias_[oc];
        for (size_t ic = 0; ic < in_channels_; ++ic) {
          const double* plane = &in[ic * hw];
          for (int kr = -1; kr <= 1; ++kr) {
            int rr = static_cast<int>(r) + kr;
            if (rr < 0 || rr >= static_cast<int>(height_)) continue;
            for (int kc = -1; kc <= 1; ++kc) {
              int cc = static_cast<int>(c) + kc;
              if (cc < 0 || cc >= static_cast<int>(width_)) continue;
              acc += kernel_[((oc * in_channels_ + ic) * 3 + (kr + 1)) * 3 +
                             (kc + 1)] *
                     plane[rr * width_ + cc];
            }
          }
        }
        (*out)[oc * hw + r * width_ + c] = acc;
      }
    }
  }
}

void Conv3x3Layer::Backward(const Vec& dout, Vec* din) {
  ULDP_CHECK_EQ(dout.size(), out_dim());
  const size_t hw = height_ * width_;
  din->assign(in_dim(), 0.0);
  for (size_t oc = 0; oc < out_channels_; ++oc) {
    for (size_t r = 0; r < height_; ++r) {
      for (size_t c = 0; c < width_; ++c) {
        double d = dout[oc * hw + r * width_ + c];
        if (d == 0.0) continue;
        bias_grad_[oc] += d;
        for (size_t ic = 0; ic < in_channels_; ++ic) {
          const double* plane = &last_in_[ic * hw];
          double* dplane = &(*din)[ic * hw];
          for (int kr = -1; kr <= 1; ++kr) {
            int rr = static_cast<int>(r) + kr;
            if (rr < 0 || rr >= static_cast<int>(height_)) continue;
            for (int kc = -1; kc <= 1; ++kc) {
              int cc = static_cast<int>(c) + kc;
              if (cc < 0 || cc >= static_cast<int>(width_)) continue;
              size_t ki = ((oc * in_channels_ + ic) * 3 + (kr + 1)) * 3 +
                          (kc + 1);
              kernel_grad_[ki] += d * plane[rr * width_ + cc];
              dplane[rr * width_ + cc] += d * kernel_[ki];
            }
          }
        }
      }
    }
  }
}

// ---- MaxPool2Layer ---------------------------------------------------------

MaxPool2Layer::MaxPool2Layer(size_t channels, size_t height, size_t width)
    : channels_(channels), height_(height), width_(width) {
  ULDP_CHECK_EQ(height_ % 2, 0u);
  ULDP_CHECK_EQ(width_ % 2, 0u);
}

void MaxPool2Layer::Forward(const Vec& in, Vec* out) {
  ULDP_CHECK_EQ(in.size(), in_dim());
  const size_t oh = height_ / 2, ow = width_ / 2;
  out->resize(out_dim());
  argmax_.resize(out_dim());
  for (size_t ch = 0; ch < channels_; ++ch) {
    const double* plane = &in[ch * height_ * width_];
    for (size_t r = 0; r < oh; ++r) {
      for (size_t c = 0; c < ow; ++c) {
        size_t best_idx = (2 * r) * width_ + 2 * c;
        double best = plane[best_idx];
        for (int dr = 0; dr < 2; ++dr) {
          for (int dc = 0; dc < 2; ++dc) {
            size_t idx = (2 * r + dr) * width_ + 2 * c + dc;
            if (plane[idx] > best) {
              best = plane[idx];
              best_idx = idx;
            }
          }
        }
        size_t o = ch * oh * ow + r * ow + c;
        (*out)[o] = best;
        argmax_[o] = ch * height_ * width_ + best_idx;
      }
    }
  }
}

void MaxPool2Layer::Backward(const Vec& dout, Vec* din) {
  ULDP_CHECK_EQ(dout.size(), out_dim());
  din->assign(in_dim(), 0.0);
  for (size_t o = 0; o < dout.size(); ++o) (*din)[argmax_[o]] += dout[o];
}

}  // namespace uldp
