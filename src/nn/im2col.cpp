#include "nn/im2col.hpp"

#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/vector_loop.hpp"

namespace duo::nn {

namespace {

// One input channel with its zero border: [Ti+2pt, Hi+2ph, Wi+2pw]. Every
// tap of every output position lands inside it, so the loops below index it
// without a bounds test.
struct PaddedDims {
  std::int64_t t, h, w;
  std::int64_t size() const noexcept { return t * h * w; }
};

PaddedDims padded_dims(const Im2colGeom& g) {
  const PaddedDims p{g.ti + 2 * g.padding[0], g.hi + 2 * g.padding[1],
                     g.wi + 2 * g.padding[2]};
  DUO_CHECK_MSG(g.rows() > 0 && g.cols() > 0, "im2col: empty geometry");
  DUO_CHECK_MSG((g.to - 1) * g.stride[0] + g.kernel[0] <= p.t &&
                    (g.ho - 1) * g.stride[1] + g.kernel[1] <= p.h &&
                    (g.wo - 1) * g.stride[2] + g.kernel[2] <= p.w,
                "im2col: output dims exceed the padded input");
  return p;
}

bool has_padding(const Im2colGeom& g) noexcept {
  return g.padding[0] > 0 || g.padding[1] > 0 || g.padding[2] > 0;
}

// The calling thread's scratch plane, grown on demand and kept across calls.
float* scratch_plane(std::int64_t size) {
  thread_local std::vector<float> plane;
  if (plane.size() < static_cast<std::size_t>(size)) {
    plane.resize(static_cast<std::size_t>(size));
  }
  return plane.data();
}

// Copy one channel [Ti, Hi, Wi] into `dst` [p.t, p.h, p.w] inside a zero
// border of the geometry's padding.
void pad_channel(const Im2colGeom& g, const PaddedDims& p, const float* src,
                 float* dst) {
  const auto [pt, ph, pw] = g.padding;
  for (std::int64_t t = 0; t < p.t; ++t) {
    for (std::int64_t h = 0; h < p.h; ++h) {
      float* drow = dst + (t * p.h + h) * p.w;
      const std::int64_t it = t - pt, ih = h - ph;
      if (it < 0 || it >= g.ti || ih < 0 || ih >= g.hi) {
        std::fill_n(drow, p.w, 0.0f);
        continue;
      }
      std::fill_n(drow, pw, 0.0f);
      std::copy_n(src + (it * g.hi + ih) * g.wi, g.wi, drow + pw);
      std::fill_n(drow + pw + g.wi, pw, 0.0f);
    }
  }
}

// Inverse of pad_channel: copy the interior of `src` back into `dst`.
void unpad_channel(const Im2colGeom& g, const PaddedDims& p, const float* src,
                   float* dst) {
  const auto [pt, ph, pw] = g.padding;
  for (std::int64_t it = 0; it < g.ti; ++it) {
    for (std::int64_t ih = 0; ih < g.hi; ++ih) {
      std::copy_n(src + ((it + pt) * p.h + ih + ph) * p.w + pw, g.wi,
                  dst + (it * g.hi + ih) * g.wi);
    }
  }
}

// Calls run(kk, off, n) for every W-run of one channel's patch rows, in
// (row, column) order: kk is the tap's row within the channel, n the
// patch-matrix column of the run's first element, and off the padded-plane
// offset of its first tap. Element ow of the run sits at off + ow·sw.
template <typename Run>
void for_each_run(const Im2colGeom& g, const PaddedDims& p, Run&& run) {
  const auto [kt, kh, kw] = g.kernel;
  const auto [st, sh, sw] = g.stride;
  std::int64_t kk = 0;
  for (std::int64_t dt = 0; dt < kt; ++dt) {
    for (std::int64_t dh = 0; dh < kh; ++dh) {
      for (std::int64_t dw = 0; dw < kw; ++dw, ++kk) {
        std::int64_t n = 0;
        for (std::int64_t ot = 0; ot < g.to; ++ot) {
          const std::int64_t plane = (ot * st + dt) * p.h;
          for (std::int64_t oh = 0; oh < g.ho; ++oh, n += g.wo) {
            run(kk, (plane + oh * sh + dh) * p.w + dw, n);
          }
        }
      }
    }
  }
}

}  // namespace

void im2col(const Im2colGeom& g, const float* x, float* out) {
  const PaddedDims p = padded_dims(g);
  const std::int64_t cols = g.cols(), sw = g.stride[2];
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  const std::int64_t channel = g.ti * g.hi * g.wi;

  // One task per input channel, writing that channel's kvol rows (the
  // partition col2im_accumulate uses).
  compute_pool().parallel_for(
      static_cast<std::size_t>(g.cin), [&](std::size_t ci_idx) {
    const auto ci = static_cast<std::int64_t>(ci_idx);
    const float* xp = x + ci * channel;
    if (has_padding(g)) {
      float* plane = scratch_plane(p.size());
      pad_channel(g, p, xp, plane);
      xp = plane;
    }
    float* rows = out + ci * kvol * cols;
    for_each_run(g, p, [&](std::int64_t kk, std::int64_t off, std::int64_t n) {
      const float* src = xp + off;
      float* dst = rows + kk * cols + n;
      if (sw == 1) {
        store_each(g.wo, dst, [&](std::int64_t i) { return src[i]; });
      } else {
        for (std::int64_t ow = 0; ow < g.wo; ++ow) dst[ow] = src[ow * sw];
      }
    });
  });
}

void col2im_accumulate(const Im2colGeom& g, const float* cols, float* gx) {
  const PaddedDims p = padded_dims(g);
  const std::int64_t ncols = g.cols(), sw = g.stride[2];
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  const std::int64_t channel = g.ti * g.hi * g.wi;

  compute_pool().parallel_for(
      static_cast<std::size_t>(g.cin), [&](std::size_t ci_idx) {
    const auto ci = static_cast<std::int64_t>(ci_idx);
    float* gxc = gx + ci * channel;
    // Accumulate into a padded copy seeded from gx; the adds that land in
    // the border are the padding taps, dropped with it.
    float* sp = gxc;
    if (has_padding(g)) {
      sp = scratch_plane(p.size());
      pad_channel(g, p, gxc, sp);
    }
    const float* rows = cols + ci * kvol * ncols;
    for_each_run(g, p, [&](std::int64_t kk, std::int64_t off, std::int64_t n) {
      const float* src = rows + kk * ncols + n;
      float* dst = sp + off;
      if (sw == 1) {
        store_each(g.wo, dst, [&](std::int64_t i) { return dst[i] + src[i]; });
      } else {
        for (std::int64_t ow = 0; ow < g.wo; ++ow) dst[ow * sw] += src[ow];
      }
    });
    if (sp != gxc) unpad_channel(g, p, sp, gxc);
  });
}

}  // namespace duo::nn
