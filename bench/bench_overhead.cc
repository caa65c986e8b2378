// Overhead of the diagnosis pipeline itself. The paper claims the
// technique "is transparent to clients and has negligible overhead";
// this google-benchmark binary quantifies the controller-side costs:
// IQR outlier detection over an application's classes, the quota-plan
// fit test, and a full MRC recomputation from a per-class window (the
// only expensive step, which is why it runs on demand rather than every
// interval).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/outlier_detector.h"
#include "core/quota_planner.h"
#include "mrc/miss_ratio_curve.h"
#include "scenarios/harness.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace {

using namespace fglb;

std::map<ClassKey, MetricVector> MakeSnapshot(int classes, Rng& rng) {
  std::map<ClassKey, MetricVector> snapshot;
  for (int i = 1; i <= classes; ++i) {
    MetricVector v{};
    for (Metric m : kAllMetrics) {
      At(v, m) = rng.UniformDouble(1, 1000);
    }
    snapshot[MakeClassKey(1, static_cast<uint32_t>(i))] = v;
  }
  return snapshot;
}

void BM_OutlierDetect(benchmark::State& state) {
  const int classes = static_cast<int>(state.range(0));
  Rng rng(1);
  const auto current = MakeSnapshot(classes, rng);
  StableStateStore stable;
  for (const auto& [key, vec] : MakeSnapshot(classes, rng)) {
    stable.Update(key, vec, 0.0);
  }
  OutlierDetector detector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.Detect(current, stable));
  }
}

void BM_QuotaPlan(benchmark::State& state) {
  Rng rng(2);
  std::vector<ClassMemoryProfile> problem, others;
  for (uint32_t i = 1; i <= 4; ++i) {
    ClassMemoryProfile p;
    p.key = MakeClassKey(1, i);
    p.params.acceptable_memory_pages = rng.NextUint64(4000);
    p.params.total_memory_pages = p.params.acceptable_memory_pages + 500;
    problem.push_back(p);
  }
  for (uint32_t i = 10; i <= 30; ++i) {
    ClassMemoryProfile p;
    p.key = MakeClassKey(1, i);
    p.params.acceptable_memory_pages = rng.NextUint64(800);
    p.params.total_memory_pages = p.params.acceptable_memory_pages + 100;
    others.push_back(p);
  }
  QuotaPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.Plan(8192, problem, others));
  }
}

void BM_MrcRecompute(benchmark::State& state) {
  // Full per-class window, as DiagnoseMemory recomputes it.
  Rng rng(3);
  ZipfGenerator zipf(6000, 0.6);
  std::vector<PageId> window;
  for (int i = 0; i < 30000; ++i) {
    window.push_back(MakePageId(1, ScrambleToDomain(zipf.Sample(rng), 6000)));
  }
  MrcConfig config;
  for (auto _ : state) {
    const MissRatioCurve curve = MissRatioCurve::FromTrace(window);
    benchmark::DoNotOptimize(curve.ComputeParameters(config));
  }
}

BENCHMARK(BM_OutlierDetect)->Arg(14)->Arg(26)->Arg(100)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_QuotaPlan)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MrcRecompute)->Unit(benchmark::kMillisecond);

// Wall-clock of a full consolidation-style scenario with the metrics
// registry and null-check instrumentation either wired in or absent.
// Tracing stays off in both runs (a trace file is I/O-bound and opt-in)
// so the ratio isolates the always-on instrumentation cost. Both arms
// count page references through the same recorder, so the rate is
// comparable and the ratio stays fair.
struct ScenarioRun {
  double wall_ms = 0;
  uint64_t accesses = 0;
};

ScenarioRun RunScenario(bool observability) {
  bench::AccessCounter counter;  // declared first: outlives the harness
  ClusterHarness harness({}, observability);
  harness.AddServers(2);
  PhysicalServer* first = harness.resources().servers()[0].get();
  Scheduler* tpcw = harness.AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = harness.AddApplication(MakeRubis(rubis_options));
  Replica* shared = harness.resources().CreateReplica(first, 8192);
  tpcw->AddReplica(shared);
  rubis->AddReplica(shared);
  harness.AddConstantClients(tpcw, 60, 1);
  harness.AddConstantClients(rubis, 30, 2);
  harness.AttachRecorders(nullptr, &counter);
  harness.Start();
  const auto start = std::chrono::steady_clock::now();
  harness.RunFor(300);
  ScenarioRun run;
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  run.accesses = counter.accesses();
  return run;
}

// Re-times the pipeline stages outside google-benchmark and writes
// BENCH_overhead.json so the perf trajectory of the diagnosis path is
// machine-readable across commits.
void WriteJsonSummary(const std::string& path) {
  bench::BenchJsonWriter json;
  const auto time_best = [](int reps, auto&& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      best = std::min(
          best, std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count());
    }
    return best;
  };

  {
    Rng rng(1);
    const auto current = MakeSnapshot(100, rng);
    StableStateStore stable;
    for (const auto& [key, vec] : MakeSnapshot(100, rng)) {
      stable.Update(key, vec, 0.0);
    }
    OutlierDetector detector;
    const double ms = time_best(20, [&] {
      benchmark::DoNotOptimize(detector.Detect(current, stable));
    });
    json.Add("outlier_detect_100_classes", ms, 100);
  }
  {
    Rng rng(3);
    ZipfGenerator zipf(6000, 0.6);
    std::vector<PageId> window;
    for (int i = 0; i < 30000; ++i) {
      window.push_back(
          MakePageId(1, ScrambleToDomain(zipf.Sample(rng), 6000)));
    }
    MrcConfig config;
    const double exact_ms = time_best(5, [&] {
      const MissRatioCurve curve = MissRatioCurve::FromTrace(window);
      benchmark::DoNotOptimize(curve.ComputeParameters(config));
    });
    json.Add("mrc_recompute_exact_30k", exact_ms, 30000);

    MrcConfig sampled_config;
    sampled_config.sample_rate = 1.0 / 8;
    const SpanPair<PageId> view{std::span<const PageId>(window)};
    const double sampled_ms = time_best(5, [&] {
      const MissRatioCurve curve =
          MissRatioCurve::FromTrace(view, sampled_config);
      benchmark::DoNotOptimize(curve.ComputeParameters(sampled_config));
    });
    json.Add("mrc_recompute_sampled_8x_30k", sampled_ms, 30000);
  }
  {
    // End-to-end instrumentation overhead: metrics on vs fully off,
    // tracing off in both. One ~150 ms run swings by ±10% with host
    // noise, so a single ratio says nothing about a 2% target: run
    // kPairs off/on pairs back to back, alternate which arm goes first,
    // and report the median of the per-pair on/off ratios with its
    // quartiles. The runs are deterministic, so every repetition
    // performs the same page references.
    constexpr int kPairs = 21;
    std::vector<double> off_ms, on_ms, ratios;
    uint64_t off_accesses = 0, on_accesses = 0;
    for (int pair = 0; pair < kPairs; ++pair) {
      ScenarioRun off, on;
      if (pair % 2 == 0) {
        off = RunScenario(false);
        on = RunScenario(true);
      } else {
        on = RunScenario(true);
        off = RunScenario(false);
      }
      off_ms.push_back(off.wall_ms);
      on_ms.push_back(on.wall_ms);
      ratios.push_back(on.wall_ms / off.wall_ms);
      off_accesses = off.accesses;
      on_accesses = on.accesses;
    }
    json.Add("scenario_300s_observability_off", Quantile(off_ms, 0.5),
             static_cast<double>(off_accesses));
    json.Add("scenario_300s_observability_on", Quantile(on_ms, 0.5),
             static_cast<double>(on_accesses));
    const QuartileSummary ratio = Quartiles(ratios);
    json.AddField("observability_enabled_vs_disabled", ratio.median);
    json.AddField("observability_ratio_q1", ratio.q1);
    json.AddField("observability_ratio_q3", ratio.q3);
    json.AddField("observability_pairs", kPairs);
    std::printf("observability on/off: median paired ratio %.4f "
                "(quartiles %.4f-%.4f, %d pairs)\n",
                ratio.median, ratio.q1, ratio.q3, kPairs);
  }
  json.WriteTo(path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteJsonSummary("BENCH_overhead.json");
  return 0;
}
