// Kernel and index probes for the traced run: the public nn kernels at fixed
// shapes (the micro_ops Conv3d layer and a deeper-layer GEMM), and one
// retrieve_feature scan over the workload gallery. Each probe warms up once,
// then reports the median of repeated calls. Operation counts and bytes are
// computed from the shape (A and B read once, C read and written once); no
// peak is measured, so there is no roofline ratio.

#include <string>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "nn/conv3d.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace duo;

constexpr double kProbeSeconds = 0.15;

// Median wall time of fn() in ms over repeated calls lasting about
// kProbeSeconds (at least 5), after one warm-up call.
template <typename Fn>
double median_ms(const char* span_name, Fn&& fn) {
  fn();
  std::vector<double> ms;
  Stopwatch total;
  while (ms.size() < 5 || total.elapsed_seconds() < kProbeSeconds) {
    trace::Scope span(span_name);
    Stopwatch watch;
    fn();
    ms.push_back(watch.elapsed_ms());
  }
  return median(ms);
}

void gemm_probe(MetricSheet& pl, std::int64_t m, std::int64_t k,
                std::int64_t n) {
  Rng rng(7);
  const Tensor a = Tensor::uniform({m, k}, -1.0f, 1.0f, rng);
  const Tensor b = Tensor::uniform({k, n}, -1.0f, 1.0f, rng);
  Tensor c = Tensor::zeros({m, n});
  const double flop = 2.0 * static_cast<double>(m * k * n);
  const std::string shape = "m" + std::to_string(m) + "k" + std::to_string(k) +
                            "n" + std::to_string(n);
  auto call = [&] { nn::gemm_accumulate(m, k, n, a.data(), b.data(), c.data()); };
  ThreadPool serial(1);
  set_compute_pool(&serial);
  const double t1 = median_ms("nn.gemm", call);
  set_compute_pool(nullptr);
  const double tp = median_ms("nn.gemm", call);
  pl.set("nn.gemm.gflops." + shape + ".t1", flop / (t1 * 1e6), "GF/s");
  pl.set("nn.gemm.gflops." + shape + ".pool", flop / (tp * 1e6), "GF/s");
  pl.set("nn.gemm.flop." + shape, flop, "flop");
  pl.set("nn.gemm.bytes_computed." + shape,
         4.0 * static_cast<double>(m * k + k * n + 2 * m * n), "B");
}

}  // namespace

void run_probes(Context& ctx) {
  MetricSheet& pl = ctx.per_layer;
  gemm_probe(pl, 16, 216, 6272);
  gemm_probe(pl, 24, 432, 1568);

  // The micro_ops Conv3d: 8 -> 16 channels, 3x3x3, over [8, 8, 28, 28].
  Rng rng(21);
  nn::Conv3dSpec spec;
  spec.in_channels = 8;
  spec.out_channels = 16;
  nn::Conv3d conv(spec, rng);
  const Tensor input = Tensor::uniform({8, 8, 28, 28}, -1.0f, 1.0f, rng);
  const Tensor out = conv.forward(input);
  const Tensor grad = Tensor::uniform(out.shape(), -1.0f, 1.0f, rng);
  pl.set("nn.conv3d.fwd_ms", median_ms("nn.conv3d.fwd", [&] { conv.forward(input); }), "ms");
  pl.set("nn.conv3d.bwd_ms", median_ms("nn.conv3d.bwd", [&] { conv.backward(grad); }), "ms");

  nn::Im2colGeom g;
  g.cin = 8;
  g.ti = 8;
  g.hi = 28;
  g.wi = 28;
  g.kernel = {3, 3, 3};
  g.padding = {1, 1, 1};
  g.to = 8;
  g.ho = 28;
  g.wo = 28;
  std::vector<float> cols(static_cast<std::size_t>(g.rows() * g.cols()));
  std::vector<float> gx(static_cast<std::size_t>(input.size()));
  pl.set("nn.im2col_ms",
         median_ms("nn.im2col", [&] { nn::im2col(g, input.data(), cols.data()); }), "ms");
  pl.set("nn.col2im_ms",
         median_ms("nn.col2im", [&] { nn::col2im_accumulate(g, cols.data(), gx.data()); }),
         "ms");

  // One index scan (no extractor forward) over the workload gallery.
  World& world = *ctx.world;
  const Tensor feature =
      world.system->extract_features({world.dataset.test.front()}).front();
  pl.set("retrieval.index_query_us",
         1e3 * median_ms("retrieval.index_query", [&] {
           world.system->retrieve_feature(feature, world.params.m);
         }),
         "us");
}

}  // namespace perfbench
