// Tests of the benchmark's ledger: exclusive time under nested layers,
// analysis-thread busy time kept apart from the simulation thread's
// layers, the closure arithmetic, and metric names.

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "ledger.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using e2e::Layer;

bool Near(double a, double b) { return a - b < 1e-12 && b - a < 1e-12; }

void NestedScopesChargeExclusiveTime() {
  e2e::LayerStack stack;
  stack.Enter(Layer::kSim, 0);
  stack.Enter(Layer::kEngine, 10);
  stack.Enter(Layer::kWorkload, 12);
  stack.Exit(20);  // workload: 8
  stack.Exit(30);  // engine: 20 - 8
  stack.Enter(Layer::kEngine, 40);
  stack.Exit(45);  // engine: +5
  stack.Exit(100);  // sim: 100 - 20 - 5
  CHECK(stack.depth() == 0);
  CHECK(stack.self_ns(Layer::kWorkload) == 8);
  CHECK(stack.self_ns(Layer::kEngine) == 17);
  CHECK(stack.self_ns(Layer::kSim) == 75);
  CHECK(stack.calls(Layer::kEngine) == 2);
  CHECK(stack.calls(Layer::kSim) == 1);
  CHECK(stack.calls(Layer::kMrcDiagnose) == 0);
  CHECK(stack.total_self_ns() == 100);
}

void WorkerBusyTimeStaysOffTheStack() {
  e2e::Ledger ledger;
  {
    // Not armed: scopes record nothing.
    e2e::Scope scope(Layer::kSim);
    e2e::BusyScope busy;
  }
  CHECK(ledger.stack().calls(Layer::kSim) == 0);
  CHECK(ledger.busy_calls() == 0);

  ledger.Arm();
  {
    e2e::Scope diagnose(Layer::kMrcDiagnose);
    std::thread worker([] {
      e2e::Scope engine(Layer::kEngine);  // not the ledger's thread
      e2e::BusyScope busy;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    worker.join();
    e2e::BusyScope own_share;  // the calling thread's share of the work
  }
  ledger.Disarm();
  {
    e2e::Scope after(Layer::kSim);
  }

  CHECK(ledger.stack().calls(Layer::kMrcDiagnose) == 1);
  CHECK(ledger.stack().calls(Layer::kEngine) == 0);
  CHECK(ledger.stack().calls(Layer::kSim) == 0);
  CHECK(ledger.busy_calls() == 2);
  CHECK(ledger.busy_ns() >= 20'000'000);
  // The waiting thread's wall time is its own layer's, and the worker's
  // busy time is not subtracted from it.
  CHECK(ledger.stack().self_ns(Layer::kMrcDiagnose) >= 20'000'000);
  CHECK(ledger.stack().total_self_ns() ==
        ledger.stack().self_ns(Layer::kMrcDiagnose));
}

void ClosureIsSelfTimeOverRunTime() {
  e2e::LayerStack stack;
  stack.Enter(Layer::kSim, 0);
  stack.Enter(Layer::kEngine, 100'000'000);
  stack.Exit(400'000'000);
  stack.Exit(900'000'000);
  CHECK(stack.total_self_ns() == 900'000'000);
  CHECK(Near(e2e::Closure(stack, 1.0), 0.9));
  CHECK(Near(e2e::Closure(stack, 0.9), 1.0));
  CHECK(e2e::Closure(stack, 0) == 0);

  e2e::Ledger ledger;
  ledger.stack() = stack;
  e2e::RunFacts facts;
  facts.run_s = 1.8;
  for (const e2e::Metric& metric : e2e::LedgerMetrics(ledger, facts)) {
    if (metric.name == "ledger.closure") CHECK(Near(metric.value, 0.5));
    if (metric.name == "sim.self_s") CHECK(Near(metric.value, 0.6));
    if (metric.name == "engine.execute_s") CHECK(Near(metric.value, 0.3));
  }
}

void NamesAreWellFormedAndUnique() {
  CHECK(e2e::ValidName("engine.ns_per_access"));
  CHECK(e2e::ValidName("tier-thrash"));
  CHECK(!e2e::ValidName(""));
  CHECK(!e2e::ValidName("a b"));
  CHECK(!e2e::ValidName("ms/op"));
  std::set<std::string> names;
  for (const e2e::Metric& metric :
       e2e::LedgerMetrics(e2e::Ledger(), e2e::RunFacts())) {
    CHECK(e2e::ValidName(metric.name));
    CHECK(e2e::ValidName(metric.unit));
    CHECK(names.insert(metric.name).second);
  }
  for (int i = 0; i < e2e::kLayerCount; ++i) {
    CHECK(e2e::ValidName(e2e::LayerName(static_cast<Layer>(i))));
  }
}

}  // namespace

int main() {
  NestedScopesChargeExclusiveTime();
  WorkerBusyTimeStaysOffTheStack();
  ClosureIsSelfTimeOverRunTime();
  NamesAreWellFormedAndUnique();
  if (failures != 0) {
    std::fprintf(stderr, "ledger_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("ledger_test: ok\n");
  return 0;
}
