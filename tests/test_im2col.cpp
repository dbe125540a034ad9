// im2col / col2im_accumulate against a naive per-element reference.
//
// The reference tests every tap against the input bounds and walks the patch
// matrix in (row, column) order. The production kernels copy each channel
// into a zero-bordered plane and move whole W-runs, so these tests pin them
// bitwise to the reference over the geometries where that rewrite could go
// wrong: strides on each axis, paddings wider than the input, 1×1×1 kernels
// and odd widths. col2im is checked onto a non-zero gx (it accumulates).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/im2col.hpp"

namespace duo::nn {
namespace {

using Dims = std::array<std::int64_t, 3>;

Im2colGeom make_geom(std::int64_t cin, Dims in, Dims kernel, Dims stride,
                     Dims padding) {
  Im2colGeom g;
  g.cin = cin;
  g.ti = in[0];
  g.hi = in[1];
  g.wi = in[2];
  g.kernel = kernel;
  g.stride = stride;
  g.padding = padding;
  Dims out{};
  for (int a = 0; a < 3; ++a) {
    out[a] = (in[a] + 2 * padding[a] - kernel[a]) / stride[a] + 1;
  }
  g.to = out[0];
  g.ho = out[1];
  g.wo = out[2];
  return g;
}

std::string describe(const Im2colGeom& g) {
  auto dims = [](const Dims& d) {
    return std::to_string(d[0]) + "x" + std::to_string(d[1]) + "x" +
           std::to_string(d[2]);
  };
  return "cin " + std::to_string(g.cin) + " in " +
         dims({g.ti, g.hi, g.wi}) + " kernel " + dims(g.kernel) + " stride " +
         dims(g.stride) + " padding " + dims(g.padding);
}

// Calls tap(row, n, p) for every patch-matrix entry in (row, column) order;
// p is the flat input index the entry reads, or -1 for a padding tap.
template <typename Tap>
void for_each_tap(const Im2colGeom& g, Tap&& tap) {
  const auto [kt, kh, kw] = g.kernel;
  const auto [st, sh, sw] = g.stride;
  const auto [pt, ph, pw] = g.padding;
  std::int64_t row = 0;
  for (std::int64_t ci = 0; ci < g.cin; ++ci) {
    for (std::int64_t dt = 0; dt < kt; ++dt) {
      for (std::int64_t dh = 0; dh < kh; ++dh) {
        for (std::int64_t dw = 0; dw < kw; ++dw, ++row) {
          std::int64_t n = 0;
          for (std::int64_t ot = 0; ot < g.to; ++ot) {
            for (std::int64_t oh = 0; oh < g.ho; ++oh) {
              for (std::int64_t ow = 0; ow < g.wo; ++ow, ++n) {
                const std::int64_t it = ot * st - pt + dt;
                const std::int64_t ih = oh * sh - ph + dh;
                const std::int64_t iw = ow * sw - pw + dw;
                const bool inside = it >= 0 && it < g.ti && ih >= 0 &&
                                    ih < g.hi && iw >= 0 && iw < g.wi;
                tap(row, n,
                    inside ? ((ci * g.ti + it) * g.hi + ih) * g.wi + iw : -1);
              }
            }
          }
        }
      }
    }
  }
}

std::vector<float> reference_im2col(const Im2colGeom& g,
                                    const std::vector<float>& x) {
  std::vector<float> out(static_cast<std::size_t>(g.rows() * g.cols()));
  for_each_tap(g, [&](std::int64_t row, std::int64_t n, std::int64_t p) {
    out[static_cast<std::size_t>(row * g.cols() + n)] =
        p < 0 ? 0.0f : x[static_cast<std::size_t>(p)];
  });
  return out;
}

void reference_col2im(const Im2colGeom& g, const std::vector<float>& cols,
                      std::vector<float>& gx) {
  for_each_tap(g, [&](std::int64_t row, std::int64_t n, std::int64_t p) {
    if (p >= 0) {
      gx[static_cast<std::size_t>(p)] +=
          cols[static_cast<std::size_t>(row * g.cols() + n)];
    }
  });
}

std::vector<float> random_values(std::int64_t n, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (float& e : v) e = rng.uniform_f(-1.0f, 1.0f);
  return v;
}

void expect_bitwise(const std::vector<float>& want,
                    const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0)
        << what << ": diverges at " << i << " (" << want[i] << " vs "
        << got[i] << ")";
  }
}

std::vector<Im2colGeom> geometry_grid() {
  return {
      // C3D-style 3×3×3, padding 1, odd and even widths.
      make_geom(2, {4, 6, 6}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}),
      make_geom(3, {3, 5, 7}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}),
      make_geom(1, {5, 9, 13}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}),
      // Stride 2 on each axis alone, then on all three.
      make_geom(2, {7, 5, 5}, {3, 3, 3}, {2, 1, 1}, {1, 1, 1}),
      make_geom(2, {3, 9, 5}, {3, 3, 3}, {1, 2, 1}, {1, 1, 1}),
      make_geom(2, {3, 5, 9}, {3, 3, 3}, {1, 1, 2}, {1, 1, 1}),
      make_geom(2, {5, 9, 9}, {3, 3, 3}, {2, 2, 2}, {1, 1, 1}),
      // I3D / SlowFast stems: stride (1, 2, 2), odd widths.
      make_geom(3, {4, 11, 11}, {3, 3, 3}, {1, 2, 2}, {1, 1, 1}),
      make_geom(3, {2, 13, 15}, {1, 3, 3}, {1, 2, 2}, {0, 1, 1}),
      // Padding 0 and 2.
      make_geom(2, {4, 6, 7}, {2, 3, 3}, {1, 1, 1}, {0, 0, 0}),
      make_geom(2, {4, 6, 7}, {3, 3, 3}, {1, 1, 1}, {2, 2, 2}),
      make_geom(2, {5, 7, 9}, {3, 3, 3}, {2, 2, 2}, {2, 2, 2}),
      // W (and T, H) narrower than the padding.
      make_geom(2, {1, 2, 1}, {3, 3, 3}, {1, 1, 1}, {2, 2, 2}),
      make_geom(1, {2, 3, 1}, {1, 3, 1}, {1, 1, 1}, {0, 1, 2}),
      make_geom(2, {3, 3, 2}, {3, 3, 3}, {1, 1, 2}, {1, 1, 2}),
      // 1×1×1 kernels: a plain copy, with stride, with padding.
      make_geom(4, {2, 4, 4}, {1, 1, 1}, {1, 1, 1}, {0, 0, 0}),
      make_geom(3, {3, 7, 9}, {1, 1, 1}, {1, 2, 2}, {0, 0, 0}),
      make_geom(2, {2, 3, 5}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}),
      // Runs longer than a vector chunk, with a tail.
      make_geom(2, {2, 3, 37}, {1, 3, 3}, {1, 1, 1}, {0, 1, 1}),
  };
}

TEST(Im2col, MatchesReferenceBitwiseOverTheGeometryGrid) {
  Rng rng(90);
  for (const Im2colGeom& g : geometry_grid()) {
    const auto x = random_values(g.cin * g.ti * g.hi * g.wi, rng);
    std::vector<float> got(static_cast<std::size_t>(g.rows() * g.cols()),
                           42.0f);  // every element must be overwritten
    im2col(g, x.data(), got.data());
    expect_bitwise(reference_im2col(g, x), got, "im2col " + describe(g));
  }
}

TEST(Im2col, Col2imAccumulatesOntoNonZeroGxBitwise) {
  Rng rng(91);
  for (const Im2colGeom& g : geometry_grid()) {
    const auto cols = random_values(g.rows() * g.cols(), rng);
    const auto seed = random_values(g.cin * g.ti * g.hi * g.wi, rng);
    std::vector<float> want = seed, got = seed;
    reference_col2im(g, cols, want);
    col2im_accumulate(g, cols.data(), got.data());
    expect_bitwise(want, got, "col2im " + describe(g));
  }
}

// The scratch planes are per thread and reused across calls; a geometry
// that shrinks after a larger one must not read a stale border.
TEST(Im2col, ReusedScratchAcrossShrinkingGeometries) {
  Rng rng(92);
  const Im2colGeom big =
      make_geom(2, {4, 9, 11}, {3, 3, 3}, {1, 1, 1}, {2, 2, 2});
  const Im2colGeom small =
      make_geom(2, {2, 3, 3}, {3, 3, 3}, {1, 1, 1}, {1, 1, 1});
  for (const Im2colGeom& g : {big, small, big, small}) {
    const auto x = random_values(g.cin * g.ti * g.hi * g.wi, rng);
    std::vector<float> got(static_cast<std::size_t>(g.rows() * g.cols()));
    im2col(g, x.data(), got.data());
    expect_bitwise(reference_im2col(g, x), got, "im2col " + describe(g));
    std::vector<float> gx = x, want = x;
    col2im_accumulate(g, got.data(), gx.data());
    reference_col2im(g, got, want);
    expect_bitwise(want, gx, "col2im " + describe(g));
  }
}

TEST(Im2col, BitwiseAcrossThreadCounts) {
  const Im2colGeom g =
      make_geom(5, {4, 9, 13}, {3, 3, 3}, {1, 2, 2}, {1, 1, 1});
  Rng rng(93);
  const auto x = random_values(g.cin * g.ti * g.hi * g.wi, rng);
  const auto cols = random_values(g.rows() * g.cols(), rng);
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    set_compute_pool(&pool);
    std::vector<float> out(static_cast<std::size_t>(g.rows() * g.cols()));
    im2col(g, x.data(), out.data());
    std::vector<float> gx = x;
    col2im_accumulate(g, cols.data(), gx.data());
    set_compute_pool(nullptr);
    return std::make_pair(out, gx);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  expect_bitwise(serial.first, parallel.first, "im2col");
  expect_bitwise(serial.second, parallel.second, "col2im");
}

}  // namespace
}  // namespace duo::nn
