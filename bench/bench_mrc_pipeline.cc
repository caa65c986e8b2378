// Tentpole perf benchmark: the MRC analysis pipeline. The reaction
// path's most expensive step is LogAnalyzer::DiagnoseMemory — one
// Mattson replay per suspect class over that class's recent-access
// window. The seed implementation copied every window into a fresh
// vector and replayed each class serially through a freshly allocated
// exact Fenwick stack. This binary measures that legacy path against
// the pipeline (zero-copy ring snapshots + reusable scratch stacks +
// hash-sampled replay, serial over classes) on 8 classes x 64k-entry
// windows, checks the sampled MRC parameters stay within 10% of the
// exact result, and emits BENCH_mrc_pipeline.json.
//
//   ./build/bench/bench_mrc_pipeline [output.json]

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/log_analyzer.h"
#include "engine/database_engine.h"
#include "mrc/mrc_tracker.h"
#include "storage/disk_model.h"

namespace {

using namespace fglb;

constexpr int kClasses = 8;
constexpr size_t kWindow = 65536;
constexpr uint64_t kPagesPerClass = 6000;
constexpr double kSampleRate = 1.0 / 8;
constexpr int kRepetitions = 5;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Fills each class's ring window exactly as back-to-back execution
// would: kWindow zipf-skewed references over a per-class page domain.
void FillWindows(DatabaseEngine* engine) {
  for (int c = 0; c < kClasses; ++c) {
    const ClassKey key = MakeClassKey(1, static_cast<uint32_t>(c + 1));
    Rng rng(100 + c);
    ZipfGenerator zipf(kPagesPerClass, 0.7);
    for (size_t i = 0; i < kWindow; ++i) {
      engine->stats().RecordPageAccess(
          key, MakePageId(static_cast<uint32_t>(c + 1),
                          ScrambleToDomain(zipf.Sample(rng), kPagesPerClass)));
    }
  }
}

// The seed's DiagnoseMemory inner loop, verbatim in shape: per-call
// window copy, fresh tracker (= fresh exact Fenwick stack per replay),
// serial over classes.
std::vector<MrcParameters> LegacyDiagnose(const StatsCollector& stats,
                                          const std::vector<ClassKey>& keys,
                                          const MrcConfig& config) {
  std::vector<MrcParameters> params;
  params.reserve(keys.size());
  for (ClassKey key : keys) {
    const std::vector<PageId> window = stats.AccessWindow(key);
    MrcTracker tracker(config);
    params.push_back(tracker.Recompute(window).params);
  }
  return params;
}

double BestOf(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, MsSince(start));
  }
  return best;
}

double RelativeError(uint64_t exact, uint64_t approx) {
  if (exact == 0) return approx == 0 ? 0.0 : 1.0;
  const double d = std::abs(static_cast<double>(approx) -
                            static_cast<double>(exact));
  return d / static_cast<double>(exact);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_mrc_pipeline.json";
  bench::PrintHeader(
      "MRC analysis pipeline: sampled + copy-free diagnosis");
  std::printf("%d classes, %zu-entry windows, sample rate 1/%d\n", kClasses,
              kWindow, static_cast<int>(std::lround(1.0 / kSampleRate)));

  DiskModel disk;
  DatabaseEngine::Options engine_options;
  engine_options.access_window_capacity = kWindow;
  DatabaseEngine engine("bench", engine_options, &disk);
  FillWindows(&engine);

  std::vector<ClassKey> keys;
  std::set<ClassKey> candidates;
  for (int c = 0; c < kClasses; ++c) {
    keys.push_back(MakeClassKey(1, static_cast<uint32_t>(c + 1)));
    candidates.insert(keys.back());
  }

  const double total_accesses =
      static_cast<double>(kClasses) * static_cast<double>(kWindow);
  bench::BenchJsonWriter json;

  // 1. Legacy serial path (seed behaviour): copy + fresh exact stack.
  MrcConfig exact_config;
  std::vector<MrcParameters> exact_params;
  const double legacy_ms = BestOf(kRepetitions, [&] {
    exact_params = LegacyDiagnose(engine.stats(), keys, exact_config);
  });
  json.Add("legacy_serial_exact_copy", legacy_ms, total_accesses);
  std::printf("\nlegacy serial exact (copy per call):   %8.2f ms\n",
              legacy_ms);

  // 2. Serial exact pipeline: copy-free windows + scratch-stack reuse.
  MrcConfig serial_config;
  LogAnalyzer serial_analyzer(&engine, OutlierConfig{}, serial_config);
  serial_analyzer.DiagnoseMemory(candidates);  // warm trackers/scratch
  LogAnalyzer::MemoryDiagnosis serial_diag;
  const double serial_ms = BestOf(kRepetitions, [&] {
    serial_diag = serial_analyzer.DiagnoseMemory(candidates);
  });
  json.Add("serial_exact_nocopy", serial_ms, total_accesses);
  std::printf("serial exact, copy-free + scratch:     %8.2f ms\n", serial_ms);

  // 3. The pipeline: sampled replay + copy-free.
  MrcConfig pipeline_config;
  pipeline_config.sample_rate = kSampleRate;
  LogAnalyzer pipeline_analyzer(&engine, OutlierConfig{}, pipeline_config);
  pipeline_analyzer.DiagnoseMemory(candidates);  // warm trackers/scratch
  LogAnalyzer::MemoryDiagnosis pipeline_diag;
  const double pipeline_ms = BestOf(kRepetitions, [&] {
    pipeline_diag = pipeline_analyzer.DiagnoseMemory(candidates);
  });
  json.Add("serial_sampled_nocopy", pipeline_ms, total_accesses);
  std::printf("serial sampled, copy-free + scratch:   %8.2f ms\n",
              pipeline_ms);

  const double speedup = legacy_ms / pipeline_ms;
  std::printf("\nspeedup over seed serial path:         %8.2fx\n", speedup);

  // Accuracy: sampled parameters vs the exact Fenwick result.
  bench::PrintSection("sampled vs exact MRC parameters");
  std::vector<ClassMemoryProfile> profiles = pipeline_diag.suspects;
  profiles.insert(profiles.end(), pipeline_diag.cleared.begin(),
                  pipeline_diag.cleared.end());
  std::sort(profiles.begin(), profiles.end(),
            [](const ClassMemoryProfile& a, const ClassMemoryProfile& b) {
              return a.key < b.key;
            });
  double max_err = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const MrcParameters& exact = exact_params[i];
    const MrcParameters& sampled = profiles[i].params;
    const double err_total =
        RelativeError(exact.total_memory_pages, sampled.total_memory_pages);
    const double err_acceptable = RelativeError(
        exact.acceptable_memory_pages, sampled.acceptable_memory_pages);
    max_err = std::max({max_err, err_total, err_acceptable});
    std::printf("class %zu: total %6" PRIu64 " vs %6" PRIu64
                " (%.1f%%), acceptable %6" PRIu64 " vs %6" PRIu64 " (%.1f%%)\n",
                i + 1, exact.total_memory_pages, sampled.total_memory_pages,
                100 * err_total, exact.acceptable_memory_pages,
                sampled.acceptable_memory_pages, 100 * err_acceptable);
  }

  json.WriteTo(json_path);

  const bool fast_enough = speedup >= 3.0;
  const bool accurate_enough = max_err <= 0.10;
  std::printf("\nspeedup >= 3x: %s   max parameter error %.1f%% <= 10%%: %s\n",
              fast_enough ? "yes" : "NO", 100 * max_err,
              accurate_enough ? "yes" : "NO");
  std::printf("shape %s\n",
              fast_enough && accurate_enough ? "HOLDS" : "VIOLATED");
  return fast_enough && accurate_enough ? 0 : 1;
}
