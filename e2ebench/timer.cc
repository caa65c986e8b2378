// Phase timers for the benchmark's builds of tools/fglb_sim.cc and
// tools/fglb_replay.cc. Linked with --wrap options (see CMakeLists.txt),
// they time the tools' own calls:
//
//   set-up      from the first ClusterHarness construction or ReadCapture
//               to the start of the timed phase;
//   timed phase the outermost ClusterHarness::RunFor (live) or
//               ReplayRunner::Run (replay).
//
// The DatabaseEngine::Execute wrapper counts page references. When the
// E2E_OUT environment variable names a directory, the end of the timed
// phase writes there
//
//   report.txt   samples table, actions and diagnoses, as fglb_sim
//                prints them
//   actions.txt  the exact action log, with hex-float times
//   result.json  the measurements; in the traced build (E2E_TRACED) also
//                the per-layer ledger, which is armed for the timed phase
//
// and a replay fails unless it reproduced the captured action log with
// every recorded access consumed and no generated fallbacks. Without
// E2E_OUT the programs behave exactly as the tools.

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "engine/database_engine.h"
#include "ledger.h"
#include "replay/capture.h"
#include "replay/replayer.h"
#include "scenarios/harness.h"
#include "scenarios/report.h"
#include "storage/tiered_buffer_pool.h"

namespace e2e {
namespace {

using fglb::ClusterHarness;

struct Phase {
  int64_t setup_start_ns = -1;  // first harness construction or ReadCapture
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int depth = 0;  // nesting of timed calls; replay's Run calls RunFor
  uint64_t events_before = 0;
  double read_s = 0;
  double build_s = 0;
  const fglb::Capture* capture = nullptr;  // the last capture read
};

Phase phase;
Ledger ledger;

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

void StartSetup() {
  if (phase.setup_start_ns < 0) phase.setup_start_ns = NowNs();
}

void Appendf(std::string* out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n > 0) out->append(buffer, std::min<size_t>(n, sizeof(buffer) - 1));
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  return ok;
}

// Opens the timed phase if no timed call is open yet; returns whether
// this call opened it.
bool BeginPhase(ClusterHarness* harness) {
  if (phase.depth++ > 0) return false;
  StartSetup();
  phase.events_before =
      harness != nullptr ? harness->sim().executed_events() : 0;
#ifdef E2E_TRACED
  ledger.Arm();
#endif
  phase.start_ns = NowNs();
  return true;
}

// Closes a timed call; returns whether it closed the timed phase and the
// outputs are wanted.
bool EndPhase(bool outermost) {
  --phase.depth;
  if (!outermost) return false;
  phase.end_ns = NowNs();
#ifdef E2E_TRACED
  ledger.Disarm();
#endif
  return std::getenv("E2E_OUT") != nullptr;
}

#ifdef E2E_TRACED
// The ledger's facts from the simulator's own getters and the timers.
RunFacts CollectFacts(ClusterHarness& harness, double run_s) {
  RunFacts facts;
  facts.run_s = run_s;
  facts.read_s = phase.read_s;
  facts.build_s = phase.build_s;
  facts.events = harness.sim().executed_events() - phase.events_before;
  for (fglb::Replica* replica : harness.resources().AllReplicas()) {
    const fglb::DatabaseEngine& engine = replica->engine();
    if (const fglb::TieredBufferPool* tier = engine.tier2()) {
      facts.tier2_demotions += tier->demotions();
      facts.tier2_promotions += tier->promotions();
    }
    facts.fallbacks += engine.generated_fallbacks();
  }
  for (const auto& scheduler : harness.schedulers()) {
    facts.completed += scheduler->total_completed();
    facts.shed += scheduler->total_shed();
  }
  facts.ticks = harness.retuner().samples().size();
  facts.trace_events = harness.trace().events_emitted();
  return facts;
}
#endif

std::string ResultJson(ClusterHarness& harness, double setup_s, double run_s) {
  const int requested = harness.retuner().config().mrc.analysis_threads;
  const int mrc_threads =
      requested > 0 ? requested
                    : static_cast<int>(
                          std::max(1u, std::thread::hardware_concurrency()));
  std::string out;
  Appendf(&out,
          "{\"setup_s\": %.9f, \"run_s\": %.9f, \"accesses\": %" PRIu64
          ", \"mrc_threads\": %d",
          setup_s, run_s, ledger.engine().page_accesses, mrc_threads);
#ifdef E2E_TRACED
  out += ", \"calls\": {";
  for (int i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    Appendf(&out, "\"%s\": %" PRIu64 ", ", LayerName(layer),
            ledger.stack().calls(layer));
  }
  Appendf(&out, "\"mrc.recompute\": %" PRIu64 "}, \"metrics\": {",
          ledger.busy_calls());
  const std::vector<Metric> metrics =
      LedgerMetrics(ledger, CollectFacts(harness, run_s));
  for (size_t i = 0; i < metrics.size(); ++i) {
    Appendf(&out, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
            i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
            metrics[i].unit.c_str());
  }
  out += "}";
#endif
  out += "}\n";
  return out;
}

// Writes the outputs of the timed phase to $E2E_OUT.
bool WriteOutputs(ClusterHarness& harness, std::string* error) {
  const fglb::SelectiveRetuner& retuner = harness.retuner();
  const std::string report =
      fglb::FormatSamplesTable(retuner.samples()) + "\nactions:\n" +
      fglb::FormatActions(retuner.actions()) + "\ndiagnoses:\n" +
      fglb::FormatDiagnoses(retuner.diagnoses());
  std::string actions;
  for (const fglb::SelectiveRetuner::Action& action : retuner.actions()) {
    Appendf(&actions, "%a %u %u ", action.time,
            static_cast<unsigned>(action.kind), action.app);
    actions += action.description + "\n";
  }
  const std::string result =
      ResultJson(harness, Seconds(phase.setup_start_ns, phase.start_ns),
                 Seconds(phase.start_ns, phase.end_ns));
  const std::string base = std::string(std::getenv("E2E_OUT")) + "/";
  for (const auto& [name, text] : {std::pair{"report.txt", report},
                                   std::pair{"actions.txt", actions},
                                   std::pair{"result.json", result}}) {
    if (!WriteFile(base + name, text)) {
      *error = "cannot write " + base + name;
      return false;
    }
  }
  return true;
}

// The replay checks: the action log is the captured one, and every
// execution replayed a recorded access string.
bool CheckReplay(fglb::ReplayRunner& runner, std::string* error) {
  const fglb::Capture* capture = phase.capture;
  if (capture == nullptr) {
    *error = "replay without a capture read";
    return false;
  }
  const auto& actions = runner.harness()->retuner().actions();
  bool same = actions.size() == capture->actions.size();
  for (size_t i = 0; same && i < actions.size(); ++i) {
    const fglb::CaptureAction& recorded = capture->actions[i];
    same = actions[i].time == recorded.t &&
           static_cast<uint8_t>(actions[i].kind) == recorded.kind &&
           actions[i].app == recorded.app &&
           actions[i].description == recorded.description;
  }
  if (!same) {
    *error = "replayed action log differs from the captured one";
    return false;
  }
  uint64_t fallbacks = 0;
  for (fglb::Replica* replica : runner.harness()->resources().AllReplicas()) {
    fallbacks += replica->engine().generated_fallbacks();
  }
  if (runner.source()->misses() != 0 || fallbacks != 0) {
    *error = "replay fell back to generated accesses";
    return false;
  }
  if (ledger.engine().page_accesses != capture->accesses.size()) {
    *error = "replay executed a different number of page accesses than "
             "were captured";
    return false;
  }
  return true;
}

[[noreturn]] void Fail(const std::string& error) {
  std::fprintf(stderr, "error: benchmark: %s\n", error.c_str());
  std::fflush(nullptr);
  std::_Exit(1);
}

}  // namespace

// ---- set-up ----
E2E_INTERCEPT(
    void, HarnessCtor,
    _ZN4fglb14ClusterHarnessC1ENS_16SelectiveRetuner6ConfigEbNS_9Simulator9QueueKindE,
    (ClusterHarness* self, fglb::SelectiveRetuner::Config config,
     bool observability, fglb::Simulator::QueueKind queue_kind)) {
  StartSetup();
  RealHarnessCtor(self, std::move(config), observability, queue_kind);
}

E2E_INTERCEPT(
    bool, ReadCapture,
    _ZN4fglb11ReadCaptureERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_7CaptureEPS5_,
    (const std::string& path, fglb::Capture* out, std::string* error)) {
  StartSetup();
  const int64_t start = NowNs();
  const bool ok = RealReadCapture(path, out, error);
  phase.read_s += Seconds(start, NowNs());
  phase.capture = out;
  return ok;
}

E2E_INTERCEPT(
    bool, ReplayBuild,
    _ZN4fglb12ReplayRunner5BuildEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    (fglb::ReplayRunner* self, std::string* error)) {
  const int64_t start = NowNs();
  const bool ok = RealReplayBuild(self, error);
  phase.build_s += Seconds(start, NowNs());
  return ok;
}

// ---- timed phase ----
E2E_INTERCEPT(void, RunFor, _ZN4fglb14ClusterHarness6RunForEd,
              (ClusterHarness* self, double seconds)) {
  const bool outermost = BeginPhase(self);
  RealRunFor(self, seconds);
  std::string error;
  if (EndPhase(outermost) && !WriteOutputs(*self, &error)) Fail(error);
}

E2E_INTERCEPT(
    bool, ReplayRun,
    _ZN4fglb12ReplayRunner3RunEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    (fglb::ReplayRunner* self, std::string* error)) {
  const bool outermost = BeginPhase(self->harness());
  bool ok = RealReplayRun(self, error);
  if (!EndPhase(outermost) || !ok) return ok;
  std::string failure;
  ok = CheckReplay(*self, &failure) && WriteOutputs(*self->harness(), &failure);
  if (!ok && error != nullptr) *error = failure;
  return ok;
}

// ---- engine ----
E2E_INTERCEPT(fglb::ExecutionCounters, Execute,
              _ZN4fglb14DatabaseEngine7ExecuteERKNS_13QueryInstanceE,
              (fglb::DatabaseEngine* self, const fglb::QueryInstance& query)) {
  Scope scope(Layer::kEngine);
  fglb::ExecutionCounters counters = RealExecute(self, query);
  EngineTotals& totals = ledger.engine();
  ++totals.executions;
  totals.page_accesses += counters.page_accesses;
  totals.random_misses += counters.random_misses;
  totals.read_aheads += counters.read_aheads;
  totals.tier2_hits += counters.tier2_hits;
  return counters;
}

}  // namespace e2e
