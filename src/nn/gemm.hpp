#pragma once

// Register-tiled single-precision GEMM for the im2col convolution
// path: C[m×n] += A[m×k]·B[k×n], all row-major.
//
// Determinism contract: every C element's accumulation chain starts from the
// value already in C and adds the k products in strictly increasing k order,
// regardless of tiling or thread count. Tiles partition C disjointly, so the
// result is bitwise identical across DUO_THREADS counts — and matches any
// scalar loop that accumulates the same chain in the same order (the order of
// the nested-loop Conv3d oracle in tests/reference_conv3d.hpp, by
// construction of the im2col row layout).
//
// Callers seed C with the additive term (bias rows, an existing gradient to
// accumulate into, or zeros) before the call.

#include <cstdint>

namespace duo::nn {

// C += A·B with the per-element ordering contract above. Parallelized over
// fixed 16×128 blocks of C on the compute pool. Inside a block, a register-
// tiled micro-kernel walks 32-column strips, then 16- and 8-column tails,
// then single columns; each tile (up to 8 rows × 32 columns) loads its C
// elements into registers once, adds one fused multiply-add per k for every
// element, and stores them once. The FMA depends on -ffp-contract=fast,
// which the build pins (src/nn/CMakeLists.txt).
void gemm_accumulate(std::int64_t m, std::int64_t k, std::int64_t n,
                     const float* a, const float* b, float* c);

}  // namespace duo::nn
