#pragma once

// Elementwise loops at vector width.
//
// GCC 12's -O2 cost model vectorizes a loop only when the vector code
// replaces all of its scalar code, so a loop whose trip count is known only
// at run time (every loop over a tensor) stays scalar. store_each splits such
// a loop into 8-wide chunks, then one 4-wide chunk, then a scalar tail: the
// idiom the GEMM's micro_tile relies on. Each chunk loop has a fixed trip
// count and computes into a local array before storing, so the vectorizer
// needs no alias check between the output and the inputs. Every element is
// computed by the same scalar expression on every path, so the results are
// bitwise those of the plain loop.
//
// Do not get the same effect with -fvect-cost-model=cheap or =dynamic: that
// also vectorizes in-order reductions. Linear::forward's dot product then
// becomes vector multiplies followed by in-order adds, each product is
// rounded before it is added, and the benchmark's outcome changes.

#include <cstdint>

namespace duo::nn {

inline constexpr std::int64_t kVectorChunk = 8;

template <std::int64_t W, typename F>
inline void store_chunk(std::int64_t i, float* out, F& f) {
  float v[W];
  for (std::int64_t j = 0; j < W; ++j) v[j] = f(i + j);
  for (std::int64_t j = 0; j < W; ++j) out[i + j] = v[j];
}

// out[i] = f(i) for i in [0, n). f may read out[i] (every read in a chunk
// happens before its stores), but no other element of out.
template <typename F>
inline void store_each(std::int64_t n, float* out, F&& f) {
  std::int64_t i = 0;
  for (; i + kVectorChunk <= n; i += kVectorChunk) {
    store_chunk<kVectorChunk>(i, out, f);
  }
  if (n - i >= 4) {
    store_chunk<4>(i, out, f);
    i += 4;
  }
  for (; i < n; ++i) out[i] = f(i);
}

}  // namespace duo::nn
