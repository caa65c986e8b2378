// Link-time interceptors of the traced benchmark programs (see
// E2E_INTERCEPT in ledger.h). Each charges a module's cross-module entry
// point to its layer and forwards to the module's own definition.
// Nothing under src/ is changed; calls the linker cannot see (virtual
// calls, calls within one source file) stay in the caller's layer.
// DatabaseEngine::Execute is wrapped in timer.cc, which every benchmark
// program links.

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "cluster/replica.h"
#include "cluster/scheduler.h"
#include "common/span_tracer.h"
#include "common/trace_log.h"
#include "core/log_analyzer.h"
#include "core/quota_planner.h"
#include "engine/stats_collector.h"
#include "ledger.h"
#include "mrc/mrc_tracker.h"
#include "scenarios/harness.h"
#include "sim/simulator.h"
#include "workload/access_generator.h"

namespace e2e {

using fglb::ClassKey;
using fglb::MetricVector;
using Snapshot = std::map<ClassKey, MetricVector>;
using Profiles = std::vector<fglb::ClassMemoryProfile>;
using Recomputation = fglb::MrcTracker::Recomputation;
using MemoryDiagnosis = fglb::LogAnalyzer::MemoryDiagnosis;
using IntervalReport = fglb::Scheduler::IntervalReport;

// ---- sim ----
E2E_INTERCEPT(void, RunUntil, _ZN4fglb9Simulator8RunUntilEd,
              (fglb::Simulator* self, double until)) {
  Scope scope(Layer::kSim);
  RealRunUntil(self, until);
}

// ---- workload ----
E2E_INTERCEPT(
    void, Generate,
    _ZN4fglb15AccessGenerator8GenerateERKNS_13QueryTemplateERNS_3RngEPSt6vectorINS_10PageAccessESaIS7_EE,
    (fglb::AccessGenerator* self, const fglb::QueryTemplate& tmpl,
     fglb::Rng& rng, std::vector<fglb::PageAccess>* out)) {
  const size_t before = out->size();
  {
    Scope scope(Layer::kWorkload);
    RealGenerate(self, tmpl, rng, out);
  }
  if (Ledger* ledger = Ledger::Active()) {
    ledger->engine().generated_accesses += out->size() - before;
  }
}

// ---- engine ----
E2E_INTERCEPT(Snapshot, StatsEndInterval,
              _ZN4fglb14StatsCollector11EndIntervalEd,
              (fglb::StatsCollector* self, double interval_seconds)) {
  Scope scope(Layer::kEngineEndInterval);
  return RealStatsEndInterval(self, interval_seconds);
}

// ---- cluster ----
E2E_INTERCEPT(
    void, ReplicaRun,
    _ZN4fglb7Replica3RunERKNS_13QueryInstanceENS_14InlineCallbackIFvdRKNS_17ExecutionCountersEELm104EEE,
    (fglb::Replica* self, const fglb::QueryInstance& query,
     fglb::Replica::CompletionFn done)) {
  Scope scope(Layer::kClusterRun);
  RealReplicaRun(self, query, std::move(done));
}

E2E_INTERCEPT(IntervalReport, SchedulerEndInterval,
              _ZN4fglb9Scheduler11EndIntervalEd,
              (fglb::Scheduler* self, double interval_seconds)) {
  Scope scope(Layer::kClusterEndInterval);
  return RealSchedulerEndInterval(self, interval_seconds);
}

// ---- core ----
E2E_INTERCEPT(
    fglb::OutlierReport, DetectOutliers,
    _ZNK4fglb11LogAnalyzer14DetectOutliersEjRKSt3mapImSt5arrayIdLm7EESt4lessImESaISt4pairIKmS3_EEEd,
    (const fglb::LogAnalyzer* self, fglb::AppId app, const Snapshot& snapshot,
     double fence_scale)) {
  Scope scope(Layer::kCoreDetect);
  return RealDetectOutliers(self, app, snapshot, fence_scale);
}

E2E_INTERCEPT(
    void, RecordStable,
    _ZN4fglb11LogAnalyzer20RecordStableIntervalEjRKSt3mapImSt5arrayIdLm7EESt4lessImESaISt4pairIKmS3_EEEd,
    (fglb::LogAnalyzer* self, fglb::AppId app, const Snapshot& snapshot,
     fglb::SimTime now)) {
  Scope scope(Layer::kCoreDetect);
  RealRecordStable(self, app, snapshot, now);
}

E2E_INTERCEPT(
    fglb::QuotaPlan, Plan,
    _ZNK4fglb12QuotaPlanner4PlanEmRKSt6vectorINS_18ClassMemoryProfileESaIS2_EES6_,
    (const fglb::QuotaPlanner* self, uint64_t pool_pages,
     const Profiles& suspects, const Profiles& others)) {
  Scope scope(Layer::kCorePlan);
  return RealPlan(self, pool_pages, suspects, others);
}

E2E_INTERCEPT(
    fglb::QuotaPlan, PlanTiered,
    _ZNK4fglb12QuotaPlanner10PlanTieredEmmRKSt6vectorINS_18ClassMemoryProfileESaIS2_EES6_RKNS_13TierCostModelE,
    (const fglb::QuotaPlanner* self, uint64_t pool_pages,
     uint64_t tier2_pages, const Profiles& suspects, const Profiles& others,
     const fglb::TierCostModel& cost)) {
  Scope scope(Layer::kCorePlan);
  return RealPlanTiered(self, pool_pages, tier2_pages, suspects, others, cost);
}

// ---- mrc ----
E2E_INTERCEPT(
    MemoryDiagnosis, DiagnoseMemory,
    _ZN4fglb11LogAnalyzer14DiagnoseMemoryERKSt3setImSt4lessImESaImEE,
    (fglb::LogAnalyzer* self, const std::set<ClassKey>& candidates)) {
  Scope scope(Layer::kMrcDiagnose);
  return RealDiagnoseMemory(self, candidates);
}

// Runs on the analysis pool's workers as well as the calling thread, so
// it is charged as busy time, never to the layer stack.
E2E_INTERCEPT(Recomputation, Recompute,
              _ZNK4fglb10MrcTracker9RecomputeENS_8SpanPairImEE,
              (const fglb::MrcTracker* self,
               fglb::SpanPair<fglb::PageId> trace)) {
  BusyScope busy;
  return RealRecompute(self, trace);
}

// ---- trace ----
E2E_INTERCEPT(void, Emit, _ZN4fglb8TraceLog4EmitERKNS_10TraceEventE,
              (fglb::TraceLog* self, const fglb::TraceEvent& event)) {
  Scope scope(Layer::kTraceEmit);
  RealEmit(self, event);
}

E2E_INTERCEPT(fglb::QuerySpan*, SpanBegin, _ZN4fglb10SpanTracer5BeginEjjd,
              (fglb::SpanTracer* self, uint32_t app, uint32_t cls,
               double now)) {
  Scope scope(Layer::kTraceSpan);
  return RealSpanBegin(self, app, cls, now);
}

E2E_INTERCEPT(void, SpanEnd, _ZN4fglb10SpanTracer7EndSpanEPNS_9QuerySpanEd,
              (fglb::SpanTracer* self, fglb::QuerySpan* span, double now)) {
  Scope scope(Layer::kTraceSpan);
  RealSpanEnd(self, span, now);
}

E2E_INTERCEPT(
    void, SpanEndImmediate,
    _ZN4fglb10SpanTracer12EndImmediateEPNS_9QuerySpanENS_11SpanSegmentEd,
    (fglb::SpanTracer* self, fglb::QuerySpan* span, fglb::SpanSegment segment,
     double duration)) {
  Scope scope(Layer::kTraceSpan);
  RealSpanEndImmediate(self, span, segment, duration);
}

// ---- capture ----
namespace {

// Charges the capture hooks, which the cluster calls virtually, to
// replay.write on their way to the recorders fglb_sim attached.
class ForwardingRecorder : public fglb::ArrivalRecorder,
                           public fglb::ExecutionRecorder {
 public:
  void Forward(fglb::ArrivalRecorder* arrivals,
               fglb::ExecutionRecorder* executions) {
    arrivals_ = arrivals;
    executions_ = executions;
  }

  void OnArrival(const fglb::QueryInstance& query) override {
    Scope scope(Layer::kCaptureWrite);
    arrivals_->OnArrival(query);
  }
  void OnExecution(int replica_id, ClassKey key,
                   const std::vector<fglb::PageAccess>& accesses) override {
    Scope scope(Layer::kCaptureWrite);
    executions_->OnExecution(replica_id, key, accesses);
  }

 private:
  fglb::ArrivalRecorder* arrivals_ = nullptr;
  fglb::ExecutionRecorder* executions_ = nullptr;
};

// Static, so it outlives every harness, as AttachRecorders requires.
ForwardingRecorder forwarding_recorder;

}  // namespace

E2E_INTERCEPT(
    void, AttachRecorders,
    _ZN4fglb14ClusterHarness15AttachRecordersEPNS_15ArrivalRecorderEPNS_17ExecutionRecorderE,
    (fglb::ClusterHarness* self, fglb::ArrivalRecorder* arrivals,
     fglb::ExecutionRecorder* executions)) {
  forwarding_recorder.Forward(arrivals, executions);
  RealAttachRecorders(self, arrivals != nullptr ? &forwarding_recorder : nullptr,
                      executions != nullptr ? &forwarding_recorder : nullptr);
}

}  // namespace e2e
