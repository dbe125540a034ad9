#include "nn/gemm.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace duo::nn {

namespace {

// Blocks of C handed to the compute pool, one task each. The block grid is
// fixed by (m, n) alone, so which thread computes which C element never
// affects its value.
constexpr std::int64_t kRowBlock = 16;
constexpr std::int64_t kColBlock = 128;

// Rows of the widest register tile. A tile row of 32 floats is two 512-bit
// vectors, so 8 rows keep 16 accumulators plus the two B vectors and the A
// broadcast inside AVX-512's 32 vector registers. AVX2 has 16 registers;
// there 4 rows measured fastest of 2, 3 and 4.
#if defined(__AVX512F__)
constexpr int kTileRows = 8;
#else
constexpr int kTileRows = 4;
#endif
constexpr int kTileCols = 32;

// C[MR×NR] += A[MR×k]·B[k×NR] with every accumulator in a register for the
// whole k loop: C is loaded once, each kk adds one fused multiply-add per
// element (contracted from acc += a·b under -ffp-contract=fast), and C is
// stored once. MR and NR are compile-time so the row loops unroll and the
// column loops become whole vectors.
template <int MR, int NR>
void micro_tile(std::int64_t k, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float* c, std::int64_t ldc) {
  float acc[MR][NR] = {};
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    for (int j = 0; j < NR; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
      const float av = a[r * lda + kk];
      for (int j = 0; j < NR; ++j) acc[r][j] += av * brow[j];
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < MR; ++r) {
    for (int j = 0; j < NR; ++j) c[r * ldc + j] = acc[r][j];
  }
}

// One NR-wide column strip of a block, all `rows` rows: full kTileRows tiles
// back to back, so the strip's k×NR slice of B is reused while cache-hot,
// then 4-, 2- and 1-row tiles for the remainder.
template <int NR>
void column_strip(std::int64_t rows, std::int64_t k, const float* a,
                  std::int64_t lda, const float* b, std::int64_t ldb, float* c,
                  std::int64_t ldc) {
  std::int64_t r = 0;
  for (; r + kTileRows <= rows; r += kTileRows) {
    micro_tile<kTileRows, NR>(k, a + r * lda, lda, b, ldb, c + r * ldc, ldc);
  }
  if constexpr (kTileRows > 4) {
    if (rows - r >= 4) {
      micro_tile<4, NR>(k, a + r * lda, lda, b, ldb, c + r * ldc, ldc);
      r += 4;
    }
  }
  if (rows - r >= 2) {
    micro_tile<2, NR>(k, a + r * lda, lda, b, ldb, c + r * ldc, ldc);
    r += 2;
  }
  if (rows - r >= 1) {
    micro_tile<1, NR>(k, a + r * lda, lda, b, ldb, c + r * ldc, ldc);
  }
}

}  // namespace

void gemm_accumulate(std::int64_t m, std::int64_t k, std::int64_t n,
                     const float* a, const float* b, float* c) {
  DUO_CHECK_MSG(m >= 0 && k >= 0 && n >= 0, "gemm: negative dimension");
  if (m == 0 || n == 0 || k == 0) return;

  const std::int64_t row_tiles = (m + kRowBlock - 1) / kRowBlock;
  const std::int64_t col_tiles = (n + kColBlock - 1) / kColBlock;

  compute_pool().parallel_for(
      static_cast<std::size_t>(row_tiles * col_tiles), [&](std::size_t t) {
    const std::int64_t i0 =
        (static_cast<std::int64_t>(t) / col_tiles) * kRowBlock;
    const std::int64_t j0 =
        (static_cast<std::int64_t>(t) % col_tiles) * kColBlock;
    const std::int64_t ib = std::min(kRowBlock, m - i0);
    const std::int64_t jb = std::min(kColBlock, n - j0);
    const float* ab = a + i0 * k;
    float* cb = c + i0 * n;

    // Column strips left to right: full-width tiles, then 16- and 8-wide
    // tails, then single columns.
    std::int64_t j = j0;
    const std::int64_t jend = j0 + jb;
    for (; j + kTileCols <= jend; j += kTileCols) {
      column_strip<kTileCols>(ib, k, ab, k, b + j, n, cb + j, n);
    }
    if (jend - j >= 16) {
      column_strip<16>(ib, k, ab, k, b + j, n, cb + j, n);
      j += 16;
    }
    if (jend - j >= 8) {
      column_strip<8>(ib, k, ab, k, b + j, n, cb + j, n);
      j += 8;
    }
    for (; j < jend; ++j) column_strip<1>(ib, k, ab, k, b + j, n, cb + j, n);
  });
}

}  // namespace duo::nn
