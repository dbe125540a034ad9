#pragma once

// im2col / col2im for [C, T, H, W] activations with zero padding.
//
// im2col lowers a 3D convolution to a matrix product: the patch matrix has
// one row per kernel tap k = ((ci·kt + dt)·kh + dh)·kw + dw and one column
// per output position n = (ot·Ho + oh)·Wo + ow, so the row order matches the
// flattened weight layout [Cout, Cin·kt·kh·kw] and the accumulation order
// over (ci, dt, dh, dw) of the nested-loop reference convolution in
// tests/reference_conv3d.hpp. Padding taps are stored as 0.
//
// Both directions run at memory speed with no per-element bounds test. Each
// channel task copies its channel once into a zero-bordered scratch plane
// (skipped when the padding is 0), in which every tap of every output
// position is in range. A patch row is then a sequence of W-runs: whole
// contiguous copies at W-stride 1, a strided gather otherwise. col2im adds
// each run into a padded copy of gx and writes the interior back, so every
// gx element receives the same adds in the same (row, column) order as a
// bounds-tested scatter would give it.
//
// The stride-1 runs go through store_each (nn/vector_loop.hpp) because
// GCC 12's -O2 cost model leaves a loop whose length is known only at run
// time scalar; a per-element `(iw >= 0 && iw < wi) ? x[iw] : 0` loop stays
// scalar too. GCC does not vectorize the strided runs either way, and a
// plain loop runs them faster than store_each's chunks.
// Do not fix this with -fvect-cost-model=cheap or =dynamic: under it,
// Linear::forward's in-order dot product loses its fused multiply-add and
// the benchmark's outcome changes (see nn/vector_loop.hpp).

#include <array>
#include <cstdint>

#include "tensor/tensor.hpp"

namespace duo::nn {

// Geometry of one im2col lowering. All dims must be consistent with a valid
// convolution (output dims positive, strides positive, paddings >= 0).
struct Im2colGeom {
  std::int64_t cin = 0, ti = 0, hi = 0, wi = 0;  // input [Cin, Ti, Hi, Wi]
  std::array<std::int64_t, 3> kernel = {1, 1, 1};
  std::array<std::int64_t, 3> stride = {1, 1, 1};
  std::array<std::int64_t, 3> padding = {0, 0, 0};
  std::int64_t to = 0, ho = 0, wo = 0;  // output spatial dims

  std::int64_t rows() const noexcept {
    return cin * kernel[0] * kernel[1] * kernel[2];
  }
  std::int64_t cols() const noexcept { return to * ho * wo; }
};

// Fill `out` [rows() × cols(), row-major] from x [Cin, Ti, Hi, Wi].
// Sharded over input channels on the compute pool (each channel owns its
// kvol patch-matrix rows); shards write disjoint rows, so the result is
// bitwise identical across thread counts.
void im2col(const Im2colGeom& g, const float* x, float* out);

// Scatter-accumulate the patch-matrix gradient back: for every (row, col)
// entry of `cols` that im2col sourced from input position p, gx[p] += entry.
// Padding taps are dropped. Sharded over input channels (each channel owns a
// disjoint row band and a disjoint slice of gx) with a fixed (row, col)
// accumulation order per channel — bitwise identical across thread counts.
void col2im_accumulate(const Im2colGeom& g, const float* cols, float* gx);

}  // namespace duo::nn
