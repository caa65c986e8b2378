#include "ledger.h"

#include <cassert>

namespace e2e {

thread_local Ledger* Ledger::active_ = nullptr;
std::atomic<Ledger*> Ledger::armed_{nullptr};

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSim: return "sim";
    case Layer::kWorkload: return "workload";
    case Layer::kEngine: return "engine";
    case Layer::kClusterRun: return "cluster.run";
    case Layer::kClusterEndInterval: return "cluster.end_interval";
    case Layer::kEngineEndInterval: return "engine.end_interval";
    case Layer::kCoreDetect: return "core.detect";
    case Layer::kCorePlan: return "core.plan";
    case Layer::kMrcDiagnose: return "mrc.diagnose";
    case Layer::kCaptureWrite: return "replay.write";
    case Layer::kTraceEmit: return "trace.emit";
    case Layer::kTraceSpan: return "trace.span";
    case Layer::kCount: break;
  }
  return "unknown";
}

void LayerStack::Enter(Layer layer, int64_t now_ns) {
  frames_.push_back(Frame{layer, now_ns, 0});
}

void LayerStack::Exit(int64_t now_ns) {
  assert(!frames_.empty());
  const Frame frame = frames_.back();
  frames_.pop_back();
  const int64_t elapsed = now_ns - frame.start_ns;
  const int index = static_cast<int>(frame.layer);
  self_ns_[index] += elapsed - frame.children_ns;
  ++calls_[index];
  if (!frames_.empty()) frames_.back().children_ns += elapsed;
}

int64_t LayerStack::total_self_ns() const {
  int64_t total = 0;
  for (int64_t ns : self_ns_) total += ns;
  return total;
}

void Ledger::Arm() {
  active_ = this;
  armed_.store(this, std::memory_order_release);
}

void Ledger::Disarm() {
  active_ = nullptr;
  armed_.store(nullptr, std::memory_order_release);
}

double Closure(const LayerStack& stack, double run_s) {
  return run_s > 0 ? static_cast<double>(stack.total_self_ns()) * 1e-9 / run_s
                   : 0;
}

namespace {

double PerUnitNs(int64_t ns, uint64_t units) {
  return units > 0 ? static_cast<double>(ns) / static_cast<double>(units) : 0;
}

}  // namespace

std::vector<Metric> LedgerMetrics(const Ledger& ledger, const RunFacts& facts) {
  const LayerStack& stack = ledger.stack();
  const EngineTotals& engine = ledger.engine();
  auto seconds = [&stack](Layer layer) {
    return static_cast<double>(stack.self_ns(layer)) * 1e-9;
  };
  auto count = [](uint64_t n) { return static_cast<double>(n); };
  const uint64_t engine_misses =
      engine.random_misses + engine.tier2_hits + engine.read_aheads;
  return {
      {"sim.self_s", seconds(Layer::kSim), "s"},
      {"sim.events", count(facts.events), "count"},
      {"sim.ns_per_event", PerUnitNs(stack.self_ns(Layer::kSim), facts.events),
       "ns"},
      {"workload.generate_s", seconds(Layer::kWorkload), "s"},
      {"workload.generate_calls", count(stack.calls(Layer::kWorkload)),
       "count"},
      {"workload.ns_per_access",
       PerUnitNs(stack.self_ns(Layer::kWorkload), engine.generated_accesses),
       "ns"},
      {"engine.execute_s", seconds(Layer::kEngine), "s"},
      {"engine.executions", count(engine.executions), "count"},
      {"engine.page_accesses", count(engine.page_accesses), "count"},
      {"engine.ns_per_access",
       PerUnitNs(stack.self_ns(Layer::kEngine), engine.page_accesses), "ns"},
      // DRAM misses per page reference: random misses, tier-2 hits and
      // read-ahead extent fetches each stall one access.
      {"engine.miss_ratio",
       engine.page_accesses > 0 ? count(engine_misses) /
                                      count(engine.page_accesses)
                                : 0,
       "ratio"},
      {"engine.read_aheads", count(engine.read_aheads), "count"},
      {"engine.tier2_hits", count(engine.tier2_hits), "count"},
      {"storage.tier2_demotions", count(facts.tier2_demotions), "count"},
      {"storage.tier2_promotions", count(facts.tier2_promotions), "count"},
      {"cluster.run_s", seconds(Layer::kClusterRun), "s"},
      {"cluster.end_interval_s", seconds(Layer::kClusterEndInterval), "s"},
      {"cluster.completed", count(facts.completed), "count"},
      {"cluster.shed", count(facts.shed), "count"},
      {"engine.end_interval_s", seconds(Layer::kEngineEndInterval), "s"},
      {"core.detect_s", seconds(Layer::kCoreDetect), "s"},
      {"core.plan_s", seconds(Layer::kCorePlan), "s"},
      {"core.ticks", count(facts.ticks), "count"},
      {"mrc.diagnose_s", seconds(Layer::kMrcDiagnose), "s"},
      {"mrc.diagnoses", count(stack.calls(Layer::kMrcDiagnose)), "count"},
      {"mrc.recompute_busy_s", static_cast<double>(ledger.busy_ns()) * 1e-9,
       "s"},
      {"replay.read_s", facts.read_s, "s"},
      {"replay.build_s", facts.build_s, "s"},
      {"replay.fallbacks", count(facts.fallbacks), "count"},
      {"replay.write_s", seconds(Layer::kCaptureWrite), "s"},
      {"trace.emit_s", seconds(Layer::kTraceEmit), "s"},
      {"trace.events", count(facts.trace_events), "count"},
      {"trace.span_s", seconds(Layer::kTraceSpan), "s"},
      {"ledger.traced_run_s", facts.run_s, "s"},
      {"ledger.closure", Closure(stack, facts.run_s), "ratio"},
  };
}

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace e2e
