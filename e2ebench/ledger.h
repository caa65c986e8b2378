#ifndef E2EBENCH_LEDGER_H_
#define E2EBENCH_LEDGER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// The layers host time is charged to on the thread that runs the
// simulation. Each is entered at a module's public entry point (see
// timer.cc and wraps.cc); calls the linker cannot intercept (virtual and
// same-file calls) stay in the caller's layer.
enum class Layer : int {
  kSim,                 // Simulator::RunUntil and what it dispatches itself
  kWorkload,            // AccessGenerator::Generate
  kEngine,              // DatabaseEngine::Execute
  kClusterRun,          // Replica::Run
  kClusterEndInterval,  // Scheduler::EndInterval
  kEngineEndInterval,   // StatsCollector::EndInterval
  kCoreDetect,          // LogAnalyzer::DetectOutliers, RecordStableInterval
  kCorePlan,            // QuotaPlanner::Plan, PlanTiered
  kMrcDiagnose,         // LogAnalyzer::DiagnoseMemory
  kCaptureWrite,        // CaptureWriter hooks, via a forwarding recorder
  kTraceEmit,           // TraceLog::Emit
  kTraceSpan,           // SpanTracer::Begin, EndSpan, EndImmediate
  kCount,
};
constexpr int kLayerCount = static_cast<int>(Layer::kCount);

const char* LayerName(Layer layer);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Exclusive-time accounting for one thread: a layer's self time is the
// time between its Enter and Exit minus the time of the layers entered
// inside it.
class LayerStack {
 public:
  void Enter(Layer layer, int64_t now_ns);
  // Closes the innermost open layer.
  void Exit(int64_t now_ns);

  int64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<int>(layer)];
  }
  uint64_t calls(Layer layer) const { return calls_[static_cast<int>(layer)]; }
  int64_t total_self_ns() const;
  size_t depth() const { return frames_.size(); }

 private:
  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t children_ns;
  };
  std::vector<Frame> frames_;
  std::array<int64_t, kLayerCount> self_ns_{};
  std::array<uint64_t, kLayerCount> calls_{};
};

// Sums of what DatabaseEngine::Execute returned, plus the accesses
// AccessGenerator::Generate produced.
struct EngineTotals {
  uint64_t executions = 0;
  uint64_t page_accesses = 0;
  uint64_t random_misses = 0;
  uint64_t read_aheads = 0;
  uint64_t tier2_hits = 0;
  uint64_t generated_accesses = 0;
};

// One traced run's ledger. Armed on the simulation thread for the timed
// phase only: scopes on that thread go to its layer stack; MRC
// recomputations on any thread (the analysis pool's workers, or the
// simulation thread itself when it takes a share of the work) add to a
// separate busy-time total that the layer stack never sees.
class Ledger {
 public:
  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // Makes this the armed ledger, owned by the calling thread.
  void Arm();
  void Disarm();

  // The armed ledger when called on its owning thread, else null.
  static Ledger* Active() { return active_; }
  // The armed ledger from any thread, else null.
  static Ledger* Armed() { return armed_.load(std::memory_order_acquire); }

  LayerStack& stack() { return stack_; }
  const LayerStack& stack() const { return stack_; }
  EngineTotals& engine() { return engine_; }
  const EngineTotals& engine() const { return engine_; }

  void AddBusy(int64_t ns) {
    busy_ns_.fetch_add(ns, std::memory_order_relaxed);
    busy_calls_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t busy_ns() const { return busy_ns_.load(std::memory_order_relaxed); }
  uint64_t busy_calls() const {
    return busy_calls_.load(std::memory_order_relaxed);
  }

 private:
  static thread_local Ledger* active_;
  static std::atomic<Ledger*> armed_;

  LayerStack stack_;
  EngineTotals engine_;
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<uint64_t> busy_calls_{0};
};

// Charges the enclosed code to `layer` when a ledger is active on this
// thread; does nothing otherwise.
class Scope {
 public:
  explicit Scope(Layer layer) : ledger_(Ledger::Active()) {
    if (ledger_ != nullptr) ledger_->stack().Enter(layer, NowNs());
  }
  ~Scope() {
    if (ledger_ != nullptr) ledger_->stack().Exit(NowNs());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* ledger_;
};

// Adds the enclosed code's duration to the armed ledger's busy time,
// from whichever thread runs it.
class BusyScope {
 public:
  BusyScope() : ledger_(Ledger::Armed()), start_ns_(ledger_ ? NowNs() : 0) {}
  ~BusyScope() {
    if (ledger_ != nullptr) ledger_->AddBusy(NowNs() - start_ns_);
  }
  BusyScope(const BusyScope&) = delete;
  BusyScope& operator=(const BusyScope&) = delete;

 private:
  Ledger* ledger_;
  int64_t start_ns_;
};

// Share of the timed phase the layers account for: the sum of every
// layer's self time over the phase's wall time.
double Closure(const LayerStack& stack, double run_s);

// Facts about a traced run that come from the simulator's own getters
// and the benchmark's timers rather than from the layer stack.
struct RunFacts {
  double run_s = 0;             // timed phase, traced
  double read_s = 0;            // ReadCapture (replay only)
  double build_s = 0;           // ReplayRunner::Build (replay only)
  uint64_t events = 0;          // Simulator::executed_events over the phase
  uint64_t tier2_demotions = 0;
  uint64_t tier2_promotions = 0;
  uint64_t completed = 0;       // Scheduler::total_completed, summed
  uint64_t shed = 0;            // Scheduler::total_shed, summed
  uint64_t ticks = 0;           // controller intervals sampled
  uint64_t fallbacks = 0;       // DatabaseEngine::generated_fallbacks, summed
  uint64_t trace_events = 0;    // TraceLog::events_emitted
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The per-layer metrics of one traced run, except ledger.trace_overhead,
// which needs the paired untraced run, and the output file sizes
// (replay.capture_bytes, trace.bytes); run.py adds those.
std::vector<Metric> LedgerMetrics(const Ledger& ledger, const RunFacts& facts);

// Metric and workload names: [A-Za-z0-9_.-]+.
bool ValidName(const std::string& name);

// Link-time interception. Linking with --wrap=<symbol> sends every call
// from another object file to __wrap_<symbol>; __real_<symbol> is the
// module's own definition. A wrapper of a member function is a free
// function whose first parameter is `this`: under the Itanium C++ ABI
// that is the same calling convention, including hidden return-slot
// pointers. CMakeLists.txt derives the --wrap options from the mangled
// names in the source files that use this macro.
//
// Declares Real<name> and Wrap<name> for the mangled `symbol`, then
// opens Wrap<name>'s body.
#define E2E_INTERCEPT(ret, name, symbol, params)      \
  ret Real##name params __asm__("__real_" #symbol); \
  ret Wrap##name params __asm__("__wrap_" #symbol); \
  ret Wrap##name params

}  // namespace e2e

#endif  // E2EBENCH_LEDGER_H_
