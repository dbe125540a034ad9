#include "nn/activations.hpp"

#include <cmath>

#include "nn/vector_loop.hpp"

namespace duo::nn {

// Both directions write their output in one vector-width pass. The selects
// keep the scalar semantics: a NaN input fails `x > 0` and gives 0 forward,
// and fails `x <= 0` so its gradient passes backward.
Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out(input.shape());
  const float* x = input.data();
  store_each(out.size(), out.data(),
             [&](std::int64_t i) { return x[i] > 0.0f ? x[i] : 0.0f; });
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(grad_output.same_shape(cached_input_),
                "ReLU: backward shape mismatch");
  Tensor grad(grad_output.shape());
  const float* gy = grad_output.data();
  const float* x = cached_input_.data();
  store_each(grad.size(), grad.data(), [&](std::int64_t i) {
    const float g = gy[i];  // loaded unconditionally, so the select vectorizes
    return x[i] <= 0.0f ? 0.0f : g;
  });
  return grad;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out = input;
  for (auto& x : out.flat()) x = std::tanh(x);
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(grad_output.same_shape(cached_output_),
                "Tanh: backward shape mismatch");
  Tensor grad = grad_output;
  auto g = grad.flat();
  const auto y = cached_output_.flat();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= 1.0f - y[i] * y[i];
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out = input;
  for (auto& x : out.flat()) x = sigmoid_scalar(x);
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(grad_output.same_shape(cached_output_),
                "Sigmoid: backward shape mismatch");
  Tensor grad = grad_output;
  auto g = grad.flat();
  const auto y = cached_output_.flat();
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= y[i] * (1.0f - y[i]);
  return grad;
}

float sigmoid_scalar(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }
float tanh_scalar(float x) noexcept { return std::tanh(x); }

Tensor Flatten::forward(const Tensor& input) {
  cached_shape_ = input.shape();
  return input.reshaped({input.size()});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(grad_output.size() == shape_numel(cached_shape_),
                "Flatten: backward size mismatch");
  return grad_output.reshaped(cached_shape_);
}

}  // namespace duo::nn
