#pragma once

// Test oracle for nn::Conv3d: the plain nested-loop 3D convolution over
// [C, T, H, W] activations with zero padding, forward and backward.
//
// The loops accumulate every output element and every weight/bias gradient
// in the tap order (ci, dt, dh, dw) that the im2col row layout reproduces,
// so the production im2col + GEMM path must match the forward and the
// parameter gradients bit for bit; its input gradient reassociates the
// reduction and only has to be close. The loops are serial; the production
// kernel is bitwise deterministic across thread counts, so one serial oracle
// covers them all.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/conv3d.hpp"
#include "tensor/tensor.hpp"

namespace duo::nn::reference {

inline Tensor::Shape conv3d_output_shape(const Conv3dSpec& spec,
                                         const Tensor::Shape& in) {
  Tensor::Shape out = {spec.out_channels, 0, 0, 0};
  for (int a = 0; a < 3; ++a) {
    out[a + 1] = (in[a + 1] + 2 * spec.padding[a] - spec.kernel[a]) /
                     spec.stride[a] +
                 1;
  }
  return out;
}

// y = conv(x; weight, bias). `bias` is read only when spec.bias is set.
inline Tensor conv3d_forward(const Conv3dSpec& spec, const Tensor& weight,
                             const Tensor& bias, const Tensor& input) {
  const Tensor::Shape out_shape = conv3d_output_shape(spec, input.shape());
  const std::int64_t cin = spec.in_channels, cout = spec.out_channels;
  const std::int64_t ti = input.shape()[1], hi = input.shape()[2],
                     wi = input.shape()[3];
  const std::int64_t to = out_shape[1], ho = out_shape[2], wo = out_shape[3];
  const auto [kt, kh, kw] = spec.kernel;
  const auto [st, sh, sw] = spec.stride;
  const auto [pt, ph, pw] = spec.padding;

  Tensor out(out_shape);
  const float* x = input.data();
  const float* w = weight.data();
  float* y = out.data();

  for (std::int64_t co = 0; co < cout; ++co) {
    const float b = spec.bias ? bias[co] : 0.0f;
    for (std::int64_t ot = 0; ot < to; ++ot) {
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow) {
          float acc = b;
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            const float* wc = w + (((co * cin + ci) * kt) * kh * kw);
            const float* xc = x + ci * ti * hi * wi;
            for (std::int64_t dt = 0; dt < kt; ++dt) {
              const std::int64_t it = ot * st - pt + dt;
              if (it < 0 || it >= ti) continue;
              for (std::int64_t dh = 0; dh < kh; ++dh) {
                const std::int64_t ih = oh * sh - ph + dh;
                if (ih < 0 || ih >= hi) continue;
                const float* xrow = xc + (it * hi + ih) * wi;
                const float* wrow = wc + (dt * kh + dh) * kw;
                for (std::int64_t dw = 0; dw < kw; ++dw) {
                  const std::int64_t iw = ow * sw - pw + dw;
                  if (iw < 0 || iw >= wi) continue;
                  acc += wrow[dw] * xrow[iw];
                }
              }
            }
          }
          y[((co * to + ot) * ho + oh) * wo + ow] = acc;
        }
      }
    }
  }
  return out;
}

// Backward of conv3d_forward at `input`: accumulates the weight and bias
// gradients into `gw` [Cout, Cin, kt, kh, kw] and `gb` [Cout] (`gb` is
// touched only when spec.bias is set) and returns the input gradient.
inline Tensor conv3d_backward(const Conv3dSpec& spec, const Tensor& weight,
                              const Tensor& input, const Tensor& grad_output,
                              Tensor& gw_out, Tensor& gb_out) {
  const Tensor::Shape out_shape = conv3d_output_shape(spec, input.shape());
  const std::int64_t cin = spec.in_channels, cout = spec.out_channels;
  const std::int64_t ti = input.shape()[1], hi = input.shape()[2],
                     wi = input.shape()[3];
  const std::int64_t to = out_shape[1], ho = out_shape[2], wo = out_shape[3];
  const auto [kt, kh, kw] = spec.kernel;
  const auto [st, sh, sw] = spec.stride;
  const auto [pt, ph, pw] = spec.padding;

  Tensor grad_input(input.shape());
  const float* x = input.data();
  const float* w = weight.data();
  const float* gy = grad_output.data();
  float* gw = gw_out.data();
  float* gb = gb_out.data();
  float* gx = grad_input.data();

  // Weight/bias grads: each output channel owns its gw/gb slice.
  for (std::int64_t co = 0; co < cout; ++co) {
    for (std::int64_t ot = 0; ot < to; ++ot) {
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow) {
          const float g = gy[((co * to + ot) * ho + oh) * wo + ow];
          if (g == 0.0f) continue;
          if (spec.bias) gb[co] += g;
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            float* gwc = gw + (((co * cin + ci) * kt) * kh * kw);
            const float* xc = x + ci * ti * hi * wi;
            for (std::int64_t dt = 0; dt < kt; ++dt) {
              const std::int64_t it = ot * st - pt + dt;
              if (it < 0 || it >= ti) continue;
              for (std::int64_t dh = 0; dh < kh; ++dh) {
                const std::int64_t ih = oh * sh - ph + dh;
                if (ih < 0 || ih >= hi) continue;
                const float* xrow = xc + (it * hi + ih) * wi;
                float* gwrow = gwc + (dt * kh + dh) * kw;
                for (std::int64_t dw = 0; dw < kw; ++dw) {
                  const std::int64_t iw = ow * sw - pw + dw;
                  if (iw < 0 || iw >= wi) continue;
                  gwrow[dw] += g * xrow[iw];
                }
              }
            }
          }
        }
      }
    }
  }

  // Input grads: each input channel owns its gx slice.
  for (std::int64_t ci = 0; ci < cin; ++ci) {
    float* gxc = gx + ci * ti * hi * wi;
    for (std::int64_t co = 0; co < cout; ++co) {
      const float* wc = w + (((co * cin + ci) * kt) * kh * kw);
      for (std::int64_t ot = 0; ot < to; ++ot) {
        for (std::int64_t oh = 0; oh < ho; ++oh) {
          for (std::int64_t ow = 0; ow < wo; ++ow) {
            const float g = gy[((co * to + ot) * ho + oh) * wo + ow];
            if (g == 0.0f) continue;
            for (std::int64_t dt = 0; dt < kt; ++dt) {
              const std::int64_t it = ot * st - pt + dt;
              if (it < 0 || it >= ti) continue;
              for (std::int64_t dh = 0; dh < kh; ++dh) {
                const std::int64_t ih = oh * sh - ph + dh;
                if (ih < 0 || ih >= hi) continue;
                float* gxrow = gxc + (it * hi + ih) * wi;
                const float* wrow = wc + (dt * kh + dh) * kw;
                for (std::int64_t dw = 0; dw < kw; ++dw) {
                  const std::int64_t iw = ow * sw - pw + dw;
                  if (iw < 0 || iw >= wi) continue;
                  gxrow[iw] += g * wrow[dw];
                }
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

// The oracle behind the Module interface, with the same parameters an
// nn::Conv3d built from the same spec and Rng would draw, so a test can run
// either one through identical code.
class ReferenceConv3d final : public Module {
 public:
  ReferenceConv3d(Conv3dSpec spec, Rng& rng) : params_(spec, rng) {}

  // Without a bias, parameters() holds only the weight; p.back() then
  // stands in for the bias arguments, which the oracle leaves unread.
  Tensor forward(const Tensor& input) override {
    input_ = input;
    const auto p = params_.parameters();
    return conv3d_forward(params_.spec(), p[0]->value, p.back()->value, input);
  }
  Tensor backward(const Tensor& grad_output) override {
    const auto p = params_.parameters();
    return conv3d_backward(params_.spec(), p[0]->value, input_, grad_output,
                           p[0]->grad, p.back()->grad);
  }
  std::vector<Parameter*> parameters() override {
    return params_.parameters();
  }
  std::string name() const override { return "ReferenceConv3d"; }

 private:
  Conv3d params_;  // parameter storage and spec only; never run
  Tensor input_;
};

}  // namespace duo::nn::reference
