#include "nn/norm.hpp"

#include <cmath>

#include "nn/vector_loop.hpp"

namespace duo::nn {

InstanceNorm3d::InstanceNorm3d(std::int64_t channels, float eps)
    : channels_(channels),
      eps_(eps),
      gamma_(Tensor::ones({channels})),
      beta_(Tensor({channels})) {
  DUO_CHECK(channels > 0);
}

Tensor InstanceNorm3d::forward(const Tensor& input) {
  DUO_CHECK_MSG(input.rank() == 4 && input.shape()[0] == channels_,
                "InstanceNorm3d: bad input shape");
  const std::int64_t c = channels_;
  const std::int64_t spatial = input.size() / c;
  DUO_CHECK_MSG(spatial > 1, "InstanceNorm3d: needs > 1 element per channel");

  Tensor out(input.shape());
  if (!cached_normalized_.same_shape(input)) {
    cached_normalized_ = Tensor(input.shape());  // every element rewritten
  }
  cached_inv_std_.assign(static_cast<std::size_t>(c), 0.0f);

  const float* x = input.data();
  float* y = out.data();
  float* xh = cached_normalized_.data();
  for (std::int64_t cc = 0; cc < c; ++cc) {
    const float* xc = x + cc * spatial;
    double mean = 0.0;
    for (std::int64_t i = 0; i < spatial; ++i) mean += xc[i];
    mean /= static_cast<double>(spatial);
    double var = 0.0;
    for (std::int64_t i = 0; i < spatial; ++i) {
      const double d = xc[i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(spatial);
    const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
    cached_inv_std_[static_cast<std::size_t>(cc)] = inv_std;
    const float g = gamma_.value[cc], b = beta_.value[cc];
    const float mean_f = static_cast<float>(mean);
    float* xhc = xh + cc * spatial;
    store_each(spatial, xhc,
               [&](std::int64_t i) { return (xc[i] - mean_f) * inv_std; });
    store_each(spatial, y + cc * spatial,
               [&](std::int64_t i) { return g * xhc[i] + b; });
  }
  return out;
}

Tensor InstanceNorm3d::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(grad_output.same_shape(cached_normalized_),
                "InstanceNorm3d: backward shape mismatch");
  const std::int64_t c = channels_;
  const std::int64_t spatial = grad_output.size() / c;
  const float inv_n = 1.0f / static_cast<float>(spatial);

  Tensor grad_input(grad_output.shape());
  const float* gy = grad_output.data();
  const float* xh = cached_normalized_.data();
  float* gx = grad_input.data();
  float* gg = gamma_.grad.data();
  float* gb = beta_.grad.data();

  for (std::int64_t cc = 0; cc < c; ++cc) {
    const float* gyc = gy + cc * spatial;
    const float* xhc = xh + cc * spatial;
    float* gxc = gx + cc * spatial;
    const float g = gamma_.value[cc];
    const float inv_std = cached_inv_std_[static_cast<std::size_t>(cc)];

    double sum_gy = 0.0, sum_gy_xh = 0.0;
    for (std::int64_t i = 0; i < spatial; ++i) {
      sum_gy += gyc[i];
      sum_gy_xh += static_cast<double>(gyc[i]) * xhc[i];
    }
    gb[cc] += static_cast<float>(sum_gy);
    gg[cc] += static_cast<float>(sum_gy_xh);

    // dL/dx = gamma * inv_std * (gy - mean(gy) - xh * mean(gy*xh))
    const float mean_gy = static_cast<float>(sum_gy) * inv_n;
    const float mean_gy_xh = static_cast<float>(sum_gy_xh) * inv_n;
    store_each(spatial, gxc, [&](std::int64_t i) {
      return g * inv_std * (gyc[i] - mean_gy - xhc[i] * mean_gy_xh);
    });
  }
  return grad_input;
}

}  // namespace duo::nn
