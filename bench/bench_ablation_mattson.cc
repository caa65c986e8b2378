// Ablation A3: Mattson stack implementations. The paper's claim that
// per-query-class statistics collection is "lightweight" rests on MRC
// tracking being cheap. The reference list-based stack is O(stack
// depth) per access; the Fenwick-tree stack is O(log n). This
// google-benchmark binary measures both across working-set sizes,
// plus end-to-end MRC curve construction on a window-sized trace.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "mrc/mattson_stack.h"
#include "mrc/miss_ratio_curve.h"
#include "reference/list_mattson_stack.h"

namespace {

using namespace fglb;

std::vector<PageId> MakeTrace(uint64_t pages, double theta, size_t n,
                              uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(pages, theta);
  std::vector<PageId> trace;
  trace.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trace.push_back(MakePageId(1, ScrambleToDomain(zipf.Sample(rng), pages)));
  }
  return trace;
}

void BM_ListStack(benchmark::State& state) {
  const uint64_t pages = static_cast<uint64_t>(state.range(0));
  const auto trace = MakeTrace(pages, 0.6, 20000, 11);
  for (auto _ : state) {
    reference::ListMattsonStack stack;
    for (PageId p : trace) benchmark::DoNotOptimize(stack.Access(p));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}

void BM_FenwickStack(benchmark::State& state) {
  const uint64_t pages = static_cast<uint64_t>(state.range(0));
  const auto trace = MakeTrace(pages, 0.6, 20000, 11);
  for (auto _ : state) {
    FenwickMattsonStack stack;
    for (PageId p : trace) benchmark::DoNotOptimize(stack.Access(p));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}

// Tree-growth cost: a window full of mostly-distinct pages forces the
// default-constructed Fenwick tree through its whole doubling
// schedule; the presized stack never rebuilds. The pair quantifies
// what the capacity hint (and the O(n) linear rebuild that replaced
// the old O(marks * log) re-insertion) is worth.
void BM_FenwickGrowthDefault(benchmark::State& state) {
  const auto trace = MakeTrace(100000, 0.1, 120000, 19);
  for (auto _ : state) {
    FenwickMattsonStack stack;
    for (PageId p : trace) benchmark::DoNotOptimize(stack.Access(p));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}

void BM_FenwickGrowthPresized(benchmark::State& state) {
  const auto trace = MakeTrace(100000, 0.1, 120000, 19);
  for (auto _ : state) {
    FenwickMattsonStack stack(trace.size());
    for (PageId p : trace) benchmark::DoNotOptimize(stack.Access(p));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.size()));
}

// Regression assertion run before the benchmarks: growth rebuilds must
// not change results, and a stack presized for the trace must never
// rebuild. Aborts the binary on violation so a perf "fix" that breaks
// either property cannot slip through a bench run.
void VerifyGrowthRegression() {
  const auto trace = MakeTrace(50000, 0.1, 60000, 23);
  FenwickMattsonStack grown;
  FenwickMattsonStack presized(trace.size());
  for (PageId p : trace) {
    if (grown.Access(p) != presized.Access(p)) {
      std::fprintf(stderr,
                   "FAIL: grown vs presized Fenwick stacks diverged\n");
      std::abort();
    }
  }
  if (grown.hit_counts() != presized.hit_counts() ||
      grown.cold_misses() != presized.cold_misses()) {
    std::fprintf(stderr, "FAIL: growth rebuild changed hit counts\n");
    std::abort();
  }
  if (grown.capacity_rebuilds() == 0) {
    std::fprintf(stderr, "FAIL: growth trace did not exercise rebuilds\n");
    std::abort();
  }
  if (presized.capacity_rebuilds() != 0) {
    std::fprintf(stderr, "FAIL: presized Fenwick stack rebuilt anyway\n");
    std::abort();
  }
  std::printf("fenwick growth regression check: OK (%llu rebuilds avoided)\n",
              static_cast<unsigned long long>(grown.capacity_rebuilds()));
}

void BM_MrcFromWindow(benchmark::State& state) {
  // A full per-class window (30000 accesses) as the log analyzer
  // recomputes it during diagnosis.
  const auto trace = MakeTrace(8192, 0.5, 30000, 13);
  for (auto _ : state) {
    const MissRatioCurve curve = MissRatioCurve::FromTrace(trace);
    benchmark::DoNotOptimize(curve.MissRatioAt(4096));
  }
}

void BM_MrcParameters(benchmark::State& state) {
  const auto trace = MakeTrace(8192, 0.5, 30000, 13);
  const MissRatioCurve curve = MissRatioCurve::FromTrace(trace);
  MrcConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve.ComputeParameters(config));
  }
}

BENCHMARK(BM_ListStack)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FenwickStack)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FenwickGrowthDefault)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FenwickGrowthPresized)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MrcFromWindow)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MrcParameters)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  VerifyGrowthRegression();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
