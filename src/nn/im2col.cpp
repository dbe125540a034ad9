#include "nn/im2col.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"

namespace duo::nn {

namespace {

struct TapCoords {
  std::int64_t ci, dt, dh, dw;
};

// Inverse of k = ((ci·kt + dt)·kh + dh)·kw + dw.
TapCoords tap_coords(std::int64_t row, const std::array<std::int64_t, 3>& k) {
  TapCoords t;
  t.dw = row % k[2];
  row /= k[2];
  t.dh = row % k[1];
  row /= k[1];
  t.dt = row % k[0];
  t.ci = row / k[0];
  return t;
}

}  // namespace

void im2col(const Im2colGeom& g, const float* x, float* out) {
  const std::int64_t rows = g.rows(), cols = g.cols();
  DUO_CHECK_MSG(rows > 0 && cols > 0, "im2col: empty geometry");
  const auto [st, sh, sw] = g.stride;
  const auto [pt, ph, pw] = g.padding;

  // One task per input channel, writing that channel's kvol rows (the
  // partition col2im_accumulate uses).
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  compute_pool().parallel_for(
      static_cast<std::size_t>(g.cin), [&](std::size_t ci_idx) {
    const auto ci = static_cast<std::int64_t>(ci_idx);
    const float* xc = x + ci * g.ti * g.hi * g.wi;
    for (std::int64_t kk = 0; kk < kvol; ++kk) {
      const std::int64_t row = ci * kvol + kk;
      const TapCoords tap = tap_coords(row, g.kernel);
      float* orow = out + row * cols;
      std::int64_t n = 0;
      for (std::int64_t ot = 0; ot < g.to; ++ot) {
        const std::int64_t it = ot * st - pt + tap.dt;
        if (it < 0 || it >= g.ti) {
          std::fill(orow + n, orow + n + g.ho * g.wo, 0.0f);
          n += g.ho * g.wo;
          continue;
        }
        for (std::int64_t oh = 0; oh < g.ho; ++oh) {
          const std::int64_t ih = oh * sh - ph + tap.dh;
          if (ih < 0 || ih >= g.hi) {
            std::fill(orow + n, orow + n + g.wo, 0.0f);
            n += g.wo;
            continue;
          }
          const float* xrow = xc + (it * g.hi + ih) * g.wi;
          for (std::int64_t ow = 0; ow < g.wo; ++ow, ++n) {
            const std::int64_t iw = ow * sw - pw + tap.dw;
            orow[n] = (iw >= 0 && iw < g.wi) ? xrow[iw] : 0.0f;
          }
        }
      }
    }
  });
}

void col2im_accumulate(const Im2colGeom& g, const float* cols, float* gx) {
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  const std::int64_t ncols = g.cols();
  const auto [st, sh, sw] = g.stride;
  const auto [pt, ph, pw] = g.padding;

  compute_pool().parallel_for(
      static_cast<std::size_t>(g.cin), [&](std::size_t ci_idx) {
    const auto ci = static_cast<std::int64_t>(ci_idx);
    float* gxc = gx + ci * g.ti * g.hi * g.wi;
    for (std::int64_t kk = 0; kk < kvol; ++kk) {
      const std::int64_t row = ci * kvol + kk;
      const TapCoords tap = tap_coords(row, g.kernel);
      const float* crow = cols + row * ncols;
      std::int64_t n = 0;
      for (std::int64_t ot = 0; ot < g.to; ++ot) {
        const std::int64_t it = ot * st - pt + tap.dt;
        if (it < 0 || it >= g.ti) {
          n += g.ho * g.wo;
          continue;
        }
        for (std::int64_t oh = 0; oh < g.ho; ++oh) {
          const std::int64_t ih = oh * sh - ph + tap.dh;
          if (ih < 0 || ih >= g.hi) {
            n += g.wo;
            continue;
          }
          float* gxrow = gxc + (it * g.hi + ih) * g.wi;
          for (std::int64_t ow = 0; ow < g.wo; ++ow, ++n) {
            const std::int64_t iw = ow * sw - pw + tap.dw;
            if (iw >= 0 && iw < g.wi) gxrow[iw] += crow[n];
          }
        }
      }
    }
  });
}

}  // namespace duo::nn
