// Microbenchmarks (google-benchmark) for the hot paths underneath the
// experiment harnesses: tensor algebra, convolution, model forward/backward,
// retrieval queries, the ranking-similarity metric, and the two pixel
// selectors (ADMM vs plain top-k — the DESIGN.md §5 ablation).

#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "attack/lp_box_admm.hpp"
#include "attack/surrogate.hpp"
#include "common/thread_pool.hpp"
#include "metrics/metrics.hpp"
#include "models/feature_extractor.hpp"
#include "nn/conv3d.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "retrieval/index.hpp"
#include "video/synthetic.hpp"

namespace {

using namespace duo;

// Pins the compute pool to the benchmark's thread-count argument for the
// serial-vs-parallel comparisons below (Arg(1) = serial baseline).
class ComputePoolGuard {
 public:
  explicit ComputePoolGuard(std::size_t threads) : pool_(threads) {
    set_compute_pool(&pool_);
  }
  ~ComputePoolGuard() { set_compute_pool(nullptr); }

 private:
  ThreadPool pool_;
};

void BM_TensorAxpy(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::uniform({state.range(0)}, -1.0f, 1.0f, rng);
  const Tensor b = Tensor::uniform({state.range(0)}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    a.axpy(0.5f, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TensorAxpy)->Arg(1 << 12)->Arg(1 << 16);

// Conv3d forward at a paper-relevant size, sharded over the given number of
// threads (arg = pool size; 0 = hardware concurrency). Outputs are bitwise
// identical across thread counts, so the only observable difference is time.
nn::Conv3dSpec conv_bench_spec() {
  nn::Conv3dSpec spec;
  spec.in_channels = 8;
  spec.out_channels = 16;
  return spec;
}

void BM_Conv3dForward(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(0)));
  Rng rng(21);
  nn::Conv3d conv(conv_bench_spec(), rng);
  const Tensor input = Tensor::uniform({8, 8, 28, 28}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(input));
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_Conv3dForward)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(0);

void BM_Conv3dBackward(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(0)));
  Rng rng(22);
  nn::Conv3d conv(conv_bench_spec(), rng);
  const Tensor input = Tensor::uniform({8, 8, 28, 28}, -1.0f, 1.0f, rng);
  const Tensor out = conv.forward(input);
  const Tensor grad = Tensor::uniform(out.shape(), -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(grad));
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_Conv3dBackward)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(0);

// im2col and col2im_accumulate at the Conv3d shapes of one perfbench
// surrogate step: C3D's three 3×3×3 convs on the quick-scale 8×16×16 clip
// (shape 0-2) and I3D's stride-(1,2,2) stem (shape 3). Serial, as they run
// inside surrogate training (one replica per worker). Bytes processed counts
// the patch matrix once.
struct Im2colShape {
  std::int64_t cin, t, h, w, stride_hw;
};
constexpr std::array<Im2colShape, 4> kIm2colShapes = {{
    {3, 8, 16, 16, 1}, {8, 8, 8, 8, 1}, {16, 4, 4, 4, 1}, {3, 8, 16, 16, 2},
}};

nn::Im2colGeom im2col_bench_geom(std::int64_t shape) {
  const Im2colShape s = kIm2colShapes[static_cast<std::size_t>(shape)];
  nn::Im2colGeom g;
  g.cin = s.cin;
  g.ti = s.t;
  g.hi = s.h;
  g.wi = s.w;
  g.kernel = {3, 3, 3};
  g.stride = {1, s.stride_hw, s.stride_hw};
  g.padding = {1, 1, 1};
  g.to = s.t;
  g.ho = (s.h - 1) / s.stride_hw + 1;
  g.wo = (s.w - 1) / s.stride_hw + 1;
  return g;
}

void set_im2col_label(benchmark::State& state, const nn::Im2colGeom& g) {
  state.SetLabel("cin" + std::to_string(g.cin) + " " + std::to_string(g.ti) +
                 "x" + std::to_string(g.hi) + "x" + std::to_string(g.wi) +
                 " s" + std::to_string(g.stride[2]));
  state.SetBytesProcessed(state.iterations() * g.rows() * g.cols() *
                          static_cast<std::int64_t>(sizeof(float)));
}

void BM_Im2col(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(1)));
  const nn::Im2colGeom g = im2col_bench_geom(state.range(0));
  Rng rng(24);
  const Tensor x = Tensor::uniform({g.cin, g.ti, g.hi, g.wi}, -1.0f, 1.0f, rng);
  std::vector<float> cols(static_cast<std::size_t>(g.rows() * g.cols()));
  for (auto _ : state) {
    nn::im2col(g, x.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
  set_im2col_label(state, g);
}
BENCHMARK(BM_Im2col)
    ->ArgNames({"shape", "threads"})
    ->ArgsProduct({{0, 1, 2, 3}, {1}});

void BM_Col2im(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(1)));
  const nn::Im2colGeom g = im2col_bench_geom(state.range(0));
  Rng rng(25);
  const Tensor cols = Tensor::uniform({g.rows(), g.cols()}, -1.0f, 1.0f, rng);
  Tensor gx({g.cin, g.ti, g.hi, g.wi});
  for (auto _ : state) {
    nn::col2im_accumulate(g, cols.data(), gx.data());
    benchmark::DoNotOptimize(gx.data());
    benchmark::ClobberMemory();
  }
  set_im2col_label(state, g);
}
BENCHMARK(BM_Col2im)
    ->ArgNames({"shape", "threads"})
    ->ArgsProduct({{0, 1, 2, 3}, {1}});

// nn::gemm_accumulate at the six GEMM shapes of one C3D surrogate training
// step (forward, weight gradient, input-gradient columns), serial and on a
// pool of hardware-concurrency size (threads:0). The GFLOP counter is a rate
// over wall time (GF/s), counting 2·m·k·n flops per call.
struct GemmShape {
  std::int64_t m, k, n;
};
constexpr std::array<GemmShape, 6> kC3dGemmShapes = {{
    {8, 81, 2048}, {16, 216, 512}, {24, 432, 64},
    {81, 2048, 8}, {216, 512, 16}, {216, 16, 512},
}};

void BM_Gemm(benchmark::State& state) {
  const GemmShape s = kC3dGemmShapes[static_cast<std::size_t>(state.range(0))];
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(1)));
  Rng rng(23);
  const Tensor a = Tensor::uniform({s.m, s.k}, -1.0f, 1.0f, rng);
  const Tensor b = Tensor::uniform({s.k, s.n}, -1.0f, 1.0f, rng);
  Tensor c({s.m, s.n});
  for (auto _ : state) {
    nn::gemm_accumulate(s.m, s.k, s.n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel("m" + std::to_string(s.m) + "k" + std::to_string(s.k) + "n" +
                 std::to_string(s.n));
  state.counters["GFLOP"] = benchmark::Counter(
      2e-9 * static_cast<double>(s.m * s.k * s.n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)
    ->ArgNames({"shape", "threads"})
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {1, 0}})
    ->UseRealTime();

// Whole-extractor forward pass (the victim-query hot path) at 1..N threads.
void BM_ExtractThreads(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(0)));
  const video::VideoGeometry g{8, 16, 16, 3};
  Rng rng(23);
  auto model = models::make_extractor(models::ModelKind::kC3D, g, 16, rng);
  model->set_training(false);
  auto spec = video::DatasetSpec::hmdb51_like(3);
  spec.geometry = g;
  const video::Video v = video::SyntheticGenerator(spec).make_video(0, 0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->extract(v));
  }
}
BENCHMARK(BM_ExtractThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(0);

void BM_ModelExtract(benchmark::State& state) {
  const video::VideoGeometry g{8, 16, 16, 3};
  Rng rng(3);
  auto model = models::make_extractor(
      static_cast<models::ModelKind>(state.range(0)), g, 16, rng);
  model->set_training(false);
  auto spec = video::DatasetSpec::hmdb51_like(3);
  spec.geometry = g;
  const video::Video v = video::SyntheticGenerator(spec).make_video(0, 0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->extract(v));
  }
}
BENCHMARK(BM_ModelExtract)
    ->Arg(static_cast<int>(models::ModelKind::kC3D))
    ->Arg(static_cast<int>(models::ModelKind::kI3D))
    ->Arg(static_cast<int>(models::ModelKind::kTPN))
    ->Arg(static_cast<int>(models::ModelKind::kSlowFast))
    ->Arg(static_cast<int>(models::ModelKind::kResNet34));

void BM_ModelBackwardToInput(benchmark::State& state) {
  const video::VideoGeometry g{8, 16, 16, 3};
  Rng rng(4);
  auto model = models::make_extractor(models::ModelKind::kC3D, g, 16, rng);
  model->set_training(false);
  auto spec = video::DatasetSpec::hmdb51_like(4);
  spec.geometry = g;
  const video::Video v = video::SyntheticGenerator(spec).make_video(0, 0, 8);
  const Tensor grad = Tensor::ones({16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->extract(v));
    benchmark::DoNotOptimize(model->backward_to_input(grad));
  }
}
BENCHMARK(BM_ModelBackwardToInput);

// Data-parallel surrogate training (SparseTransfer Alg. 1 step 1) at 1..N
// threads, default SurrogateTrainConfig (batch accumulated across replica
// groups). Results are bitwise identical across thread counts, so time is
// the only observable difference.
void BM_TrainSurrogateThreads(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(0)));
  const video::VideoGeometry g{8, 16, 16, 3};
  auto spec = video::DatasetSpec::hmdb51_like(3);
  spec.geometry = g;
  video::SyntheticGenerator gen(spec);
  attack::VideoStore store;
  std::vector<std::int64_t> ids;
  attack::SurrogateDataset ds;
  for (int i = 0; i < 16; ++i) {
    const video::Video v = gen.make_video(i % 4, i, 500 + i);
    store.add(v);
    ids.push_back(v.id());
    ds.video_ids.push_back(v.id());
  }
  Rng trng(11);
  for (int i = 0; i < 128; ++i) {
    const std::int64_t a = ids[trng.uniform_index(ids.size())];
    std::int64_t c = ids[trng.uniform_index(ids.size())];
    while (c == a) c = ids[trng.uniform_index(ids.size())];
    std::int64_t f = ids[trng.uniform_index(ids.size())];
    while (f == a || f == c) f = ids[trng.uniform_index(ids.size())];
    ds.triplets.push_back({a, c, f});
  }
  Rng mrng(12);
  auto model = models::make_extractor(models::ModelKind::kC3D, g, 16, mrng);
  attack::SurrogateTrainConfig cfg;  // default batch_size: the paper config
  cfg.epochs = 1;
  cfg.triplets_per_epoch = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::train_surrogate(*model, ds, store, cfg));
  }
  state.SetItemsProcessed(state.iterations() * cfg.triplets_per_epoch);
}
BENCHMARK(BM_TrainSurrogateThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_RetrievalQuery(benchmark::State& state) {
  const std::int64_t dim = 32;
  retrieval::RetrievalIndex index(dim, static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    retrieval::GalleryEntry e;
    e.id = i;
    e.label = i % 50;
    e.feature = Tensor::uniform({dim}, -1.0f, 1.0f, rng);
    index.add(e);
  }
  const Tensor q = Tensor::uniform({dim}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.query(q, 10));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RetrievalQuery)->Arg(1)->Arg(4)->Arg(16);

void BM_NdcgSimilarity(benchmark::State& state) {
  metrics::RetrievalList a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(i);
    b.push_back(state.range(0) - i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::ndcg_similarity(a, b));
  }
}
BENCHMARK(BM_NdcgSimilarity)->Arg(10)->Arg(100);

void BM_PixelSelect_Admm(benchmark::State& state) {
  Rng rng(6);
  const Tensor scores =
      Tensor::uniform({state.range(0)}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attack::lp_box_admm_select(scores, state.range(0) / 16,
                                   attack::LpBoxAdmmConfig{}));
  }
}
BENCHMARK(BM_PixelSelect_Admm)->Arg(1 << 12)->Arg(1 << 15);

void BM_PixelSelect_Topk(benchmark::State& state) {
  Rng rng(7);
  const Tensor scores =
      Tensor::uniform({state.range(0)}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::topk_select(scores, state.range(0) / 16));
  }
}
BENCHMARK(BM_PixelSelect_Topk)->Arg(1 << 12)->Arg(1 << 15);

void BM_SyntheticVideo(benchmark::State& state) {
  auto spec = video::DatasetSpec::ucf101_like();
  video::SyntheticGenerator gen(spec);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.make_video(0, 0, ++seed));
  }
}
BENCHMARK(BM_SyntheticVideo);

}  // namespace

BENCHMARK_MAIN();
