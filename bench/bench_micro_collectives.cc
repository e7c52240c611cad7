// Microbenchmarks for the controller hot paths: signal-ingestion
// throughput, dynamic weight generation and the weighted-average kernel.
// Collective timings live in bench_collectives.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/aggregate.h"
#include "core/controller.h"
#include "core/weight_generator.h"

namespace pr {
namespace {

void BM_ControllerSignalIngestion(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ControllerOptions options;
  options.num_workers = n;
  options.group_size = 3;
  Controller controller(options);
  Rng rng(1);
  std::vector<int64_t> iter(static_cast<size_t>(n), 0);
  std::vector<bool> queued(static_cast<size_t>(n), false);
  std::vector<int> running;
  running.reserve(static_cast<size_t>(n));

  int64_t groups = 0;
  for (auto _ : state) {
    running.clear();
    for (int w = 0; w < n; ++w) {
      if (!queued[static_cast<size_t>(w)]) running.push_back(w);
    }
    const int w = running[rng.UniformInt(running.size())];
    auto decisions =
        controller.OnReadySignal(w, ++iter[static_cast<size_t>(w)]);
    queued[static_cast<size_t>(w)] = true;
    for (const auto& d : decisions) {
      ++groups;
      for (int m : d.members) queued[static_cast<size_t>(m)] = false;
    }
    benchmark::DoNotOptimize(decisions);
  }
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_ControllerSignalIngestion)->Arg(8)->Arg(32)->Arg(128);

void BM_DynamicWeights(benchmark::State& state) {
  const size_t p = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<int64_t> iters(p);
  for (auto& it : iters) it = static_cast<int64_t>(rng.UniformInt(1, 100));
  DynamicWeightOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DynamicWeights(iters, options));
  }
}
BENCHMARK(BM_DynamicWeights)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_WeightedAverageKernel(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 3.0f), out(n);
  std::vector<const float*> inputs = {a.data(), b.data(), c.data()};
  std::vector<double> weights = {0.3, 0.3, 0.4};
  for (auto _ : state) {
    WeightedAverage(inputs, weights, n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(3 * n * sizeof(float)));
}
BENCHMARK(BM_WeightedAverageKernel)->Arg(1 << 12)->Arg(1 << 18);

}  // namespace
}  // namespace pr

BENCHMARK_MAIN();
