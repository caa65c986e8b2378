// Ablation A5: sensitivity of MRC predictions to the LRU assumption.
// The paper's memory diagnosis trusts Mattson-stack miss-ratio curves,
// which are exact for LRU (inclusion property) but only approximate for
// the CLOCK/second-chance (and adaptive ARC) policies real engines
// often use. This bench replays the same per-class traces against
// (a) the MRC prediction, (b) a real LRU pool, (c) a CLOCK pool and
// (d) an ARC pool across cache sizes, and reports the prediction error
// for each.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "mrc/miss_ratio_curve.h"
#include "reference/arc_buffer_pool.h"
#include "reference/clock_buffer_pool.h"
#include "storage/buffer_pool.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

int main() {
  using namespace fglb;
  using namespace fglb::bench;
  using reference::ArcBufferPool;
  using reference::ClockBufferPool;

  PrintHeader("Ablation A5: MRC prediction vs real LRU vs CLOCK "
              "(inclusion-property sensitivity)");

  struct Subject {
    const char* label;
    std::vector<PageId> trace;
  };
  const ApplicationSpec tpcw = MakeTpcw();
  const ApplicationSpec rubis = MakeRubis();
  const Subject subjects[] = {
      {"TPC-W BestSeller (indexed)",
       WindowTrace(*tpcw.FindTemplate(kTpcwBestSeller), 30000, 5001)},
      {"TPC-W ProductDetail",
       WindowTrace(*tpcw.FindTemplate(kTpcwProductDetail), 30000, 5002)},
      {"RUBiS SearchItemsByRegion",
       WindowTrace(*rubis.FindTemplate(kRubisSearchItemsByRegion), 30000,
                   5003)},
  };

  double max_lru_error = 0;
  double max_clock_error = 0;
  double max_arc_error = 0;
  for (const Subject& subject : subjects) {
    PrintSection(subject.label);
    const MissRatioCurve curve = MissRatioCurve::FromTrace(subject.trace);
    std::printf("%10s  %12s  %10s  %10s  %10s  %11s\n", "cache_pg",
                "mrc_predict", "lru_real", "clock_real", "arc_real",
                "clock_error");
    for (uint64_t cache : {256ULL, 1024ULL, 2048ULL, 4096ULL, 8192ULL}) {
      BufferPool lru(cache);
      ClockBufferPool clock(cache);
      ArcBufferPool arc(cache);
      for (PageId p : subject.trace) {
        lru.Access(p);
        clock.Access(p);
        arc.Access(p);
      }
      const double predicted = curve.MissRatioAt(cache);
      const double lru_real = lru.stats().miss_ratio();
      const double clock_real = clock.stats().miss_ratio();
      const double arc_real = arc.stats().miss_ratio();
      max_lru_error = std::max(max_lru_error,
                               std::fabs(predicted - lru_real));
      max_clock_error = std::max(max_clock_error,
                                 std::fabs(predicted - clock_real));
      max_arc_error = std::max(max_arc_error,
                               std::fabs(predicted - arc_real));
      std::printf("%10llu  %12.4f  %10.4f  %10.4f  %10.4f  %11.4f\n",
                  static_cast<unsigned long long>(cache), predicted,
                  lru_real, clock_real, arc_real,
                  std::fabs(predicted - clock_real));
    }
  }

  PrintSection("shape check");
  std::printf("MRC is exact for LRU (max |error| %.2g) and only "
              "approximate for CLOCK (max |error| %.3f) and ARC "
              "(max |error| %.3f)\n",
              max_lru_error, max_clock_error, max_arc_error);
  // Exactness for LRU is the inclusion property; CLOCK and ARC should
  // deviate somewhere but stay usable approximations.
  const bool shape_holds =
      max_lru_error < 1e-9 && max_clock_error > 1e-4 &&
      max_clock_error < 0.25 && max_arc_error < 0.25;
  std::printf("shape %s\n", shape_holds ? "HOLDS" : "DOES NOT HOLD");
  return shape_holds ? 0 : 1;
}
