#pragma once

#include <array>
#include <string>
#include <vector>

#include "nn/im2col.hpp"
#include "nn/module.hpp"

namespace duo::nn {

// 3D convolution over [C, T, H, W] activations with zero padding.
//
// A temporal kernel size of 1 makes this a per-frame 2D convolution, which is
// how the MiniResNet models (2D backbone + temporal pooling) are expressed
// without a separate Conv2d implementation.
//
// Forward, weight gradient and input-gradient columns all run as im2col +
// register-tiled GEMM (see nn/gemm.hpp), parallelized over row×column blocks
// of the output matrix. The forward and the weight/bias gradients accumulate
// each element in the tap order of the plain nested-loop convolution, so
// they are bitwise equal to the scalar oracle in tests/reference_conv3d.hpp
// on real inputs; the input gradient reassociates its reduction (im2col
// scatter) and is numerically equivalent but not bitwise. Every output is
// bitwise deterministic across thread counts.
struct Conv3dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::array<std::int64_t, 3> kernel = {3, 3, 3};   // {kt, kh, kw}
  std::array<std::int64_t, 3> stride = {1, 1, 1};   // {st, sh, sw}
  std::array<std::int64_t, 3> padding = {1, 1, 1};  // {pt, ph, pw}
  bool bias = true;
};

class Conv3d final : public Module {
 public:
  Conv3d(Conv3dSpec spec, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::unique_ptr<Module> clone() const override;
  std::string name() const override { return "Conv3d"; }

  const Conv3dSpec& spec() const noexcept { return spec_; }

  // Output shape for a given input shape (also validates the input shape).
  Tensor::Shape output_shape(const Tensor::Shape& input_shape) const;

 private:
  // Tag for the clone path: allocate parameter storage without drawing the
  // kaiming init from an Rng (the values are overwritten right after).
  struct Uninitialized {};
  Conv3d(Conv3dSpec spec, Uninitialized);

  Im2colGeom make_geom(const Tensor::Shape& in,
                       const Tensor::Shape& out) const noexcept;

  Conv3dSpec spec_;
  Parameter weight_;  // [Cout, Cin, kt, kh, kw]
  Parameter bias_;    // [Cout] (unused storage when spec_.bias == false)
  Tensor cached_input_;
  // Workspaces, kept across calls and resized only when the shapes change:
  // the im2col patch matrix of the last forward [K, N], and backward's
  // transposes gyT [N, Cout], gwT [K, Cout], Wᵀ [K, Cout] and input-gradient
  // columns [K, N]. A clone starts with empty ones.
  std::vector<float> cols_;
  std::vector<float> gyt_, gwt_, wt_, cols_grad_;
};

}  // namespace duo::nn
