// Direct tests of nn::gemm_accumulate, the GEMM under every Conv3d GEMM call
// (forward, weight gradient, input-gradient columns). The contract under test
// is bitwise: each C element starts from its seed value and takes one fused
// multiply-add per k in strictly increasing k order, whatever the register
// tile, column tail or thread count that computes it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/gemm.hpp"

namespace duo {
namespace {

struct Shape {
  std::int64_t m, k, n;
};

// The six GEMM shapes of one C3D surrogate training step: forward
// (Cout × Cin·kvol × cols), weight gradient (Cin·kvol × cols × Cout) and
// input-gradient columns (Cin·kvol × Cout × cols).
const std::vector<Shape> kC3dTrainingShapes = {
    {8, 81, 2048}, {16, 216, 512}, {24, 432, 64},
    {81, 2048, 8}, {216, 512, 16}, {216, 16, 512},
};

std::vector<float> random_floats(std::int64_t count, Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) x = rng.uniform_f(-1.0f, 1.0f);
  return v;
}

struct Problem {
  Shape s;
  std::vector<float> a, b, c;
};

Problem make_problem(Shape s, std::uint64_t seed) {
  Rng rng(seed);
  return {s, random_floats(s.m * s.k, rng), random_floats(s.k * s.n, rng),
          random_floats(s.m * s.n, rng)};
}

// The contract written out: seed from C, one std::fma per k, k ascending.
std::vector<float> strict_fma_chain(const Problem& p) {
  std::vector<float> c = p.c;
  for (std::int64_t i = 0; i < p.s.m; ++i) {
    for (std::int64_t j = 0; j < p.s.n; ++j) {
      float acc = c[i * p.s.n + j];
      for (std::int64_t kk = 0; kk < p.s.k; ++kk) {
        acc = std::fma(p.a[i * p.s.k + kk], p.b[kk * p.s.n + j], acc);
      }
      c[i * p.s.n + j] = acc;
    }
  }
  return c;
}

std::vector<float> run_gemm(const Problem& p) {
  std::vector<float> c = p.c;
  nn::gemm_accumulate(p.s.m, p.s.k, p.s.n, p.a.data(), p.b.data(), c.data());
  return c;
}

std::vector<float> run_gemm_on_pool(const Problem& p, std::size_t threads) {
  ThreadPool pool(threads);
  struct Restore {
    ~Restore() { set_compute_pool(nullptr); }
  } restore;
  set_compute_pool(&pool);
  return run_gemm(p);
}

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want, Shape s) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i])
        << "m" << s.m << " k" << s.k << " n" << s.n << " diverges at row "
        << static_cast<std::int64_t>(i) / s.n << ", column "
        << static_cast<std::int64_t>(i) % s.n;
  }
}

// Row counts cover the full register tile, each row tail and several row
// blocks; column counts cover the full-width tile, the 16- and 8-wide tails,
// single columns and a second column block.
TEST(Gemm, MatchesStrictFmaChainOnEveryTilePath) {
  std::uint64_t seed = 1;
  for (std::int64_t m : {1, 3, 4, 5, 17, 81}) {
    for (std::int64_t n : {1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 129}) {
      for (std::int64_t k : {1, 2, 81, 216}) {
        const Problem p = make_problem({m, k, n}, seed++);
        expect_bitwise_equal(run_gemm(p), strict_fma_chain(p), p.s);
      }
    }
  }
}

TEST(Gemm, MatchesStrictFmaChainAtC3dTrainingShapes) {
  std::uint64_t seed = 100;
  for (const Shape& s : kC3dTrainingShapes) {
    const Problem p = make_problem(s, seed++);
    expect_bitwise_equal(run_gemm(p), strict_fma_chain(p), s);
  }
}

TEST(Gemm, BitwiseAcrossComputePools) {
  std::vector<Shape> shapes = kC3dTrainingShapes;
  shapes.push_back({17, 81, 129});
  shapes.push_back({5, 216, 40});
  std::uint64_t seed = 200;
  for (const Shape& s : shapes) {
    const Problem p = make_problem(s, seed++);
    expect_bitwise_equal(run_gemm_on_pool(p, 4), run_gemm_on_pool(p, 1), s);
  }
}

TEST(Gemm, ZeroDimensionIsNoOp) {
  const Problem p = make_problem({4, 3, 5}, 300);
  for (const Shape& s : {Shape{0, 3, 5}, Shape{4, 0, 5}, Shape{4, 3, 0}}) {
    std::vector<float> c = p.c;
    nn::gemm_accumulate(s.m, s.k, s.n, p.a.data(), p.b.data(), c.data());
    EXPECT_EQ(c, p.c) << "m" << s.m << " k" << s.k << " n" << s.n;
  }
}

TEST(Gemm, NegativeDimensionThrows) {
  const Problem p = make_problem({4, 3, 5}, 301);
  std::vector<float> c = p.c;
  for (const Shape& s : {Shape{-1, 3, 5}, Shape{4, -1, 5}, Shape{4, 3, -1}}) {
    EXPECT_THROW(
        nn::gemm_accumulate(s.m, s.k, s.n, p.a.data(), p.b.data(), c.data()),
        std::logic_error)
        << "m" << s.m << " k" << s.k << " n" << s.n;
  }
  EXPECT_EQ(c, p.c);
}

}  // namespace
}  // namespace duo
