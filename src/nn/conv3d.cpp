#include "nn/conv3d.hpp"

#include <algorithm>

#include "nn/gemm.hpp"
#include "nn/init.hpp"

namespace duo::nn {

namespace {

std::int64_t conv_out_dim(std::int64_t in, std::int64_t k, std::int64_t s,
                          std::int64_t p) {
  const std::int64_t out = (in + 2 * p - k) / s + 1;
  DUO_CHECK_MSG(out > 0, "Conv3d: non-positive output dimension");
  return out;
}

// Resize a workspace to `n` elements, keeping its storage when the size is
// unchanged. Callers overwrite every element they read.
float* workspace(std::vector<float>& buf, std::int64_t n) {
  buf.resize(static_cast<std::size_t>(n));
  return buf.data();
}

}  // namespace

Conv3d::Conv3d(Conv3dSpec spec, Rng& rng)
    : spec_(spec),
      weight_(kaiming_uniform(
          {spec.out_channels, spec.in_channels, spec.kernel[0], spec.kernel[1],
           spec.kernel[2]},
          spec.in_channels * spec.kernel[0] * spec.kernel[1] * spec.kernel[2],
          rng)),
      bias_(Tensor({spec.out_channels})) {
  DUO_CHECK(spec.in_channels > 0 && spec.out_channels > 0);
  for (int a = 0; a < 3; ++a) {
    DUO_CHECK(spec.kernel[a] > 0 && spec.stride[a] > 0 && spec.padding[a] >= 0);
  }
}

Conv3d::Conv3d(Conv3dSpec spec, Uninitialized)
    : spec_(spec),
      weight_(Tensor({spec.out_channels, spec.in_channels, spec.kernel[0],
                      spec.kernel[1], spec.kernel[2]})),
      bias_(Tensor({spec.out_channels})) {}

Im2colGeom Conv3d::make_geom(const Tensor::Shape& in,
                             const Tensor::Shape& out) const noexcept {
  Im2colGeom g;
  g.cin = spec_.in_channels;
  g.ti = in[1];
  g.hi = in[2];
  g.wi = in[3];
  g.kernel = spec_.kernel;
  g.stride = spec_.stride;
  g.padding = spec_.padding;
  g.to = out[1];
  g.ho = out[2];
  g.wo = out[3];
  return g;
}

Tensor::Shape Conv3d::output_shape(const Tensor::Shape& in) const {
  DUO_CHECK_MSG(in.size() == 4, "Conv3d expects [C, T, H, W]");
  DUO_CHECK_MSG(in[0] == spec_.in_channels, "Conv3d: channel mismatch");
  return {spec_.out_channels,
          conv_out_dim(in[1], spec_.kernel[0], spec_.stride[0], spec_.padding[0]),
          conv_out_dim(in[2], spec_.kernel[1], spec_.stride[1], spec_.padding[1]),
          conv_out_dim(in[3], spec_.kernel[2], spec_.stride[2], spec_.padding[2])};
}

Tensor Conv3d::forward(const Tensor& input) {
  const auto out_shape = output_shape(input.shape());
  cached_input_ = input;
  const Im2colGeom g = make_geom(input.shape(), out_shape);
  float* cols = workspace(cols_, g.rows() * g.cols());
  im2col(g, input.data(), cols);

  // Seed each output row with its bias (the nested-loop reference in
  // tests/reference_conv3d.hpp starts every accumulator at the bias), then
  // Y += W·cols. The im2col row order is the reference's tap order, so every
  // output element accumulates the same chain in the same order: forward is
  // bitwise-reproducible against the reference on real (finite) inputs.
  Tensor out(out_shape);
  const std::int64_t n = g.cols();
  if (spec_.bias) {
    float* y = out.data();
    for (std::int64_t co = 0; co < spec_.out_channels; ++co) {
      const float b = bias_.value[co];
      for (std::int64_t i = 0; i < n; ++i) y[co * n + i] = b;
    }
  }
  gemm_accumulate(spec_.out_channels, g.rows(), n, weight_.value.data(), cols,
                  out.data());
  return out;
}

Tensor Conv3d::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(!cached_input_.empty(), "Conv3d: backward before forward");
  const auto out_shape = output_shape(cached_input_.shape());
  DUO_CHECK_MSG(grad_output.shape() == out_shape,
                "Conv3d: grad_output shape mismatch");
  const Im2colGeom g = make_geom(cached_input_.shape(), out_shape);
  const std::int64_t cout = spec_.out_channels;
  const std::int64_t k = g.rows(), n = g.cols();
  const float* gy = grad_output.data();

  // Bias: accumulate each channel's grad_output row in column order — the
  // same order the reference kernel adds them.
  if (spec_.bias) {
    float* gb = bias_.grad.data();
    for (std::int64_t co = 0; co < cout; ++co) {
      float acc = gb[co];
      const float* grow = gy + co * n;
      for (std::int64_t i = 0; i < n; ++i) acc += grow[i];
      gb[co] = acc;
    }
  }

  // Weight grad as its transpose: gwT[K, Cout] += cols[K, N] · gyT[N, Cout].
  // Working in the transposed layout lets the GEMM vectorize over Cout while
  // each gw element still accumulates over output positions in increasing
  // order, seeded from the existing gradient — the reference kernel's chain.
  {
    float* gyt = workspace(gyt_, n * cout);
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t i = 0; i < n; ++i) gyt[i * cout + co] = gy[co * n + i];
    }
    float* gwt = workspace(gwt_, k * cout);
    float* gw = weight_.grad.data();
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        gwt[kk * cout + co] = gw[co * k + kk];
      }
    }
    gemm_accumulate(k, n, cout, cols_.data(), gyt, gwt);
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        gw[co * k + kk] = gwt[kk * cout + co];
      }
    }
  }

  // Input grad: cols_grad[K, N] = Wᵀ[K, Cout] · gy[Cout, N], scattered back
  // through col2im. This reassociates the reduction relative to the
  // reference (sum over channels happens before the tap scatter), so gx is
  // numerically equivalent but not bitwise identical to the reference —
  // while remaining bitwise deterministic across thread counts.
  float* wt = workspace(wt_, k * cout);
  {
    const float* w = weight_.value.data();
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t kk = 0; kk < k; ++kk) wt[kk * cout + co] = w[co * k + kk];
    }
  }
  float* cols_grad = workspace(cols_grad_, k * n);
  std::fill_n(cols_grad, k * n, 0.0f);
  gemm_accumulate(k, cout, n, wt, gy, cols_grad);
  Tensor grad_input(cached_input_.shape());
  col2im_accumulate(g, cols_grad, grad_input.data());
  return grad_input;
}

std::vector<Parameter*> Conv3d::parameters() {
  if (spec_.bias) return {&weight_, &bias_};
  return {&weight_};
}

std::unique_ptr<Module> Conv3d::clone() const {
  // Uninitialized construction: no point drawing a kaiming init that the
  // copies below immediately overwrite (clones happen once per worker on
  // every parallel extract/train launch).
  auto copy = std::unique_ptr<Conv3d>(new Conv3d(spec_, Uninitialized{}));
  copy->weight_.value = weight_.value;
  copy->bias_.value = bias_.value;
  copy->set_training(training());
  return copy;
}

}  // namespace duo::nn
