#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "scenarios/harness.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

// The Table 2 interference scenario from integration_test, traced: two
// tenants share one engine, RUBiS arrives mid-run and wrecks TPC-W's
// buffer pool, the controller diagnoses and acts. Every SLA-violating
// interval must leave a complete sla -> impact -> iqr -> mrc -> action
// decision chain in the trace (phases the cascade never reached appear
// as skipped events), and the registry must carry the controller's
// self-metrics.
std::vector<JsonValue> ParseAll(const std::vector<std::string>& lines) {
  std::vector<JsonValue> events;
  for (const std::string& line : lines) {
    JsonValue event;
    std::string error;
    EXPECT_TRUE(JsonValue::Parse(line, &event, &error))
        << error << " in: " << line;
    events.push_back(event);
  }
  return events;
}

class ObservabilityIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    harness_ = new ClusterHarness();
    harness_->trace().EnableBuffering();
    harness_->AddServers(3);
    Scheduler* tpcw = harness_->AddApplication(MakeTpcw());
    RubisOptions rubis_options;
    rubis_options.app_id = 2;
    Scheduler* rubis = harness_->AddApplication(MakeRubis(rubis_options));
    Replica* shared = harness_->resources().CreateReplica(
        harness_->resources().servers()[0].get(), 8192);
    tpcw->AddReplica(shared);
    rubis->AddReplica(shared);
    harness_->AddConstantClients(tpcw, 30, /*seed=*/11);
    harness_->Start();
    harness_->RunFor(400);
    harness_->AddClients(rubis,
                         std::make_unique<StepLoad>(
                             std::vector<std::pair<SimTime, double>>{
                                 {400, 30}}),
                         /*seed=*/13);
    harness_->RunFor(500);
    events_ = new std::vector<JsonValue>(
        ParseAll(harness_->trace().BufferedLines()));
  }

  static void TearDownTestSuite() {
    delete events_;
    events_ = nullptr;
    delete harness_;
    harness_ = nullptr;
  }

  static ClusterHarness* harness_;
  static std::vector<JsonValue>* events_;
};

ClusterHarness* ObservabilityIntegrationTest::harness_ = nullptr;
std::vector<JsonValue>* ObservabilityIntegrationTest::events_ = nullptr;

TEST_F(ObservabilityIntegrationTest, TraceIsWellFormed) {
  ASSERT_FALSE(events_->empty());
  double expected_seq = 0;
  for (const JsonValue& event : *events_) {
    EXPECT_DOUBLE_EQ(event.NumberOr("v", -1), 1);
    EXPECT_DOUBLE_EQ(event.NumberOr("seq", -1), expected_seq);
    // No wall clock in the trace: it must be byte-reproducible.
    EXPECT_EQ(event.Find("mono_us"), nullptr);
    EXPECT_EQ(event.Find("dur_us"), nullptr);
    EXPECT_FALSE(event.StringOr("phase", "").empty());
    expected_seq += 1;
  }
  EXPECT_EQ(harness_->trace().events_emitted(), events_->size());
}

TEST_F(ObservabilityIntegrationTest, EverySlaEventStartsACompleteChain) {
  // Collect [start, end) index ranges of each violation scope: an "sla"
  // event up to (exclusive) the next "sla" event.
  std::vector<std::pair<size_t, size_t>> scopes;
  for (size_t i = 0; i < events_->size(); ++i) {
    if ((*events_)[i].StringOr("phase", "") != "sla") continue;
    if (!scopes.empty()) scopes.back().second = i;
    scopes.emplace_back(i, events_->size());
  }
  ASSERT_FALSE(scopes.empty()) << "no SLA-violating interval was traced";

  for (const auto& [start, end] : scopes) {
    const JsonValue& sla = (*events_)[start];
    // The sla event itself records the interval verdict.
    EXPECT_NE(sla.Find("sla_met"), nullptr);
    EXPECT_NE(sla.Find("avg_latency"), nullptr);
    EXPECT_NE(sla.Find("streak"), nullptr);

    size_t first_impact = 0, first_iqr = 0, first_mrc = 0, first_action = 0;
    std::map<std::string, int> counts;
    for (size_t i = start + 1; i < end; ++i) {
      const std::string phase = (*events_)[i].StringOr("phase", "");
      if (counts[phase]++ == 0) {
        if (phase == "impact") first_impact = i;
        if (phase == "iqr") first_iqr = i;
        if (phase == "mrc") first_mrc = i;
        if (phase == "action") first_action = i;
      }
    }
    // Complete chain: each diagnosis phase present at least once (as a
    // real or a skipped event) and at least one action verdict.
    EXPECT_GE(counts["impact"], 1) << "scope at event " << start;
    EXPECT_GE(counts["iqr"], 1) << "scope at event " << start;
    EXPECT_GE(counts["mrc"], 1) << "scope at event " << start;
    EXPECT_GE(counts["action"], 1) << "scope at event " << start;
    // Phase order within the scope mirrors the cascade.
    EXPECT_LT(first_impact, first_iqr);
    EXPECT_LT(first_iqr, first_mrc);
    EXPECT_LT(first_mrc, first_action);
  }
}

TEST_F(ObservabilityIntegrationTest, DiagnosisPhasesCarryPayloadAndTiming) {
  int live_impact = 0, live_iqr = 0, live_mrc = 0;
  for (const JsonValue& event : *events_) {
    const std::string phase = event.StringOr("phase", "");
    if (event.BoolOr("skipped", false)) {
      // Skipped back-fills still explain themselves.
      EXPECT_FALSE(event.StringOr("why", "").empty());
      continue;
    }
    if (phase == "impact") {
      ++live_impact;
      const JsonValue* classes = event.Find("classes");
      ASSERT_NE(classes, nullptr);
      EXPECT_TRUE(classes->is_array());
    } else if (phase == "iqr") {
      ++live_iqr;
      const JsonValue* fences = event.Find("fences");
      ASSERT_NE(fences, nullptr);
      ASSERT_TRUE(fences->is_array());
      for (const JsonValue& fence : fences->array) {
        EXPECT_LE(fence.NumberOr("q1", 0), fence.NumberOr("q3", 0));
        EXPECT_LE(fence.NumberOr("inner_hi", 0),
                  fence.NumberOr("outer_hi", 0));
      }
      EXPECT_NE(event.Find("outliers"), nullptr);
    } else if (phase == "mrc") {
      ++live_mrc;
      EXPECT_GE(event.NumberOr("candidates", -1), 0);
    }
  }
  // The interference run must have exercised the real (non-skipped)
  // diagnosis path at least once.
  EXPECT_GE(live_impact, 1);
  EXPECT_GE(live_iqr, 1);
  EXPECT_GE(live_mrc, 1);
  // Their wall-clock timing lives in the registry, one sample per
  // diagnosis call, never in the trace.
  MetricsRegistry& metrics = harness_->metrics();
  EXPECT_GE(metrics.histogram("controller.diagnose.outlier_us")->count(),
            static_cast<uint64_t>(live_impact));
  EXPECT_GE(metrics.histogram("controller.diagnose.mrc_us")->count(),
            static_cast<uint64_t>(live_mrc));
}

TEST_F(ObservabilityIntegrationTest, ActionEventsMatchRetunerLog) {
  // Every non-"none" action event corresponds 1:1, in order, to the
  // retuner's own action log.
  std::vector<const JsonValue*> traced;
  for (const JsonValue& event : *events_) {
    if (event.StringOr("phase", "") != "action") continue;
    if (event.StringOr("kind", "") == "none") {
      EXPECT_FALSE(event.StringOr("why", "").empty());
      continue;
    }
    traced.push_back(&event);
  }
  const auto& actions = harness_->retuner().actions();
  ASSERT_EQ(traced.size(), actions.size());
  for (size_t i = 0; i < actions.size(); ++i) {
    EXPECT_EQ(traced[i]->StringOr("kind", ""),
              SelectiveRetuner::ActionKindName(actions[i].kind));
    EXPECT_EQ(traced[i]->StringOr("desc", ""), actions[i].description);
    EXPECT_DOUBLE_EQ(traced[i]->NumberOr("t", -1), actions[i].time);
  }
}

TEST_F(ObservabilityIntegrationTest, RegistryCarriesControllerMetrics) {
  MetricsRegistry& metrics = harness_->metrics();
  EXPECT_GT(metrics.histogram("controller.tick_us")->count(), 0u);
  EXPECT_GT(metrics.counter("controller.violations")->value(), 0u);
  EXPECT_GT(metrics.histogram("controller.diagnose.outlier_us")->count(), 0u);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(metrics.ToJson(), &root, &error)) << error;
  // The sampler published per-engine and per-server series.
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  bool engine_series = false;
  for (const auto& [name, value] : counters->object) {
    if (name.rfind("engine.", 0) == 0) engine_series = true;
  }
  EXPECT_TRUE(engine_series);
  const JsonValue* gauges = root.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  bool server_series = false;
  for (const auto& [name, value] : gauges->object) {
    if (name.rfind("server.", 0) == 0) server_series = true;
  }
  EXPECT_TRUE(server_series);
}

TEST(ObservabilityDisabledTest, NoBindingsAndNoEvents) {
  SelectiveRetuner::Config config;
  ClusterHarness h(config, /*observability=*/false);
  h.AddServers(2);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* r = h.resources().CreateReplica(h.resources().servers()[0].get(),
                                           8192);
  tpcw->AddReplica(r);
  h.AddConstantClients(tpcw, 10, /*seed=*/1);
  h.Start();
  h.RunFor(120);
  EXPECT_EQ(h.trace().events_emitted(), 0u);
  EXPECT_FALSE(h.trace().enabled());
  EXPECT_EQ(h.metrics().counter_count(), 0u);
  EXPECT_EQ(h.metrics().gauge_count(), 0u);
  EXPECT_EQ(h.metrics().histogram_count(), 0u);
}

TEST(ObservabilityDisabledTest, DisabledRunStaysDeterministicVsEnabled) {
  // Instrumentation must not perturb the simulation: the same scenario
  // with observability on and off completes the same queries and takes
  // the same actions.
  auto run = [](bool observability) {
    SelectiveRetuner::Config config;
    ClusterHarness h(config, observability);
    h.AddServers(2);
    Scheduler* tpcw = h.AddApplication(MakeTpcw());
    Replica* r = h.resources().CreateReplica(
        h.resources().servers()[0].get(), 8192);
    tpcw->AddReplica(r);
    h.AddConstantClients(tpcw, 25, /*seed=*/5);
    h.Start();
    h.RunFor(200);
    return std::make_tuple(tpcw->total_completed(),
                           h.retuner().actions().size(),
                           h.retuner().samples().size());
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace fglb
