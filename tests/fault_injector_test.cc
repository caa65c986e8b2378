#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/trace_check.h"
#include "scenarios/harness.h"
#include "trace_compare.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

// --- the spec grammar and its canonical serialization ---

TEST(FaultSpecTest, ParseYieldsCanonicalTimeSortedToString) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "disk@300:server=0,factor=8,duration=120;"
      "crash@120:replica=1,restart=60;"
      "migration@100:delay=5,fail=0.5,duration=300",
      &spec, &error))
      << error;
  ASSERT_EQ(spec.events.size(), 3u);
  EXPECT_EQ(spec.ToString(),
            "migration@100:delay=5,fail=0.5,duration=300;"
            "crash@120:replica=1,restart=60;"
            "disk@300:server=0,factor=8,duration=120");
}

TEST(FaultSpecTest, ToStringRoundTripsThroughParse) {
  const FaultSpec spec = MakeRandomFaultSpec(42, 600);
  const std::string text = spec.ToString();
  FaultSpec reparsed;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(text, &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.ToString(), text);
}

TEST(FaultSpecTest, EveryKindRoundTripsByteIdentically) {
  const char* entries[] = {
      "crash@120:replica=1,restart=60",
      "crash@120:replica=1",  // never restarted
      "disk@300:server=0,factor=8,duration=120",
      "slow@200:replica=0,factor=3,duration=100",
      "stats@250:replica=0,mode=drop,duration=50",
      "stats@250:replica=0,mode=partial,duration=50",
      "migration@100:delay=5,fail=0.5,duration=300",
      "tier@150:replica=0,mode=fail,duration=60",
      "tier@150:replica=0,mode=degrade,factor=10,duration=60",
      "net@200:drop=0.1,dup=0.05,corrupt=0.02,reorder=0.1,delay=2,"
      "duration=120",
      "net@200:drop=0.25,duration=60",  // partial rate set
      "ctl@400:restart=30",
      "ctl@400:",  // controller stays down
  };
  for (const char* text : entries) {
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(FaultSpec::Parse(text, &spec, &error)) << text << ": "
                                                       << error;
    ASSERT_EQ(spec.events.size(), 1u) << text;
    FaultSpec reparsed;
    ASSERT_TRUE(FaultSpec::Parse(spec.ToString(), &reparsed, &error))
        << spec.ToString() << ": " << error;
    EXPECT_EQ(reparsed.ToString(), spec.ToString()) << text;
  }
}

TEST(FaultSpecTest, ParseRejectsSloppyEntriesNamingTheToken) {
  struct Case {
    const char* text;
    const char* named;  // substring the error must carry
  };
  const Case bad[] = {
      {"crash@10:replica=1,replica=2", "replica"},       // duplicate key
      {"net@10:drop=0.1,drop=0.2,duration=5", "drop"},   // duplicate key
      {"crash@10:replica=", "replica"},                  // empty value
      {"net@10:drop=0.1,,duration=5", "empty fault param"},  // doubled comma
      {"crash@10:replica=1,", "trailing"},               // trailing comma
      {"net@10:drop=0.1,duration=5,", "trailing"},       // trailing comma
      {"net@10:drop=1.5,duration=5", "drop"},            // rate out of range
      {"net@10:duration=5", "drop"},                     // window does nothing
  };
  for (const Case& c : bad) {
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(FaultSpec::Parse(c.text, &spec, &error)) << c.text;
    EXPECT_NE(error.find(c.named), std::string::npos)
        << c.text << " -> " << error;
    EXPECT_TRUE(spec.events.empty()) << c.text;  // *out left untouched
  }
}

TEST(FaultSpecTest, RandomSpecWithNewKindsRoundTripsAndStaysInBounds) {
  RandomFaultProfile profile;
  profile.replicas = 3;
  profile.servers = 2;
  profile.tier_faults = 1;
  profile.net_windows = 2;
  profile.ctl_crashes = 1;
  const FaultSpec spec = MakeRandomFaultSpec(13, 1000, profile);
  EXPECT_EQ(spec.events.size(), 9u);  // 5 legacy + tier + 2 net + ctl
  int tiers = 0, nets = 0, ctls = 0;
  for (const FaultEvent& e : spec.events) {
    EXPECT_GE(e.time, profile.min_time_fraction * 1000);
    EXPECT_LE(e.time, profile.max_time_fraction * 1000);
    switch (e.kind) {
      case FaultKind::kTier:
        ++tiers;
        EXPECT_TRUE(e.tier_mode == kTierFail || e.tier_mode == kTierDegrade);
        break;
      case FaultKind::kNet:
        ++nets;
        for (double rate : {e.drop_rate, e.dup_rate, e.corrupt_rate,
                            e.reorder_rate}) {
          EXPECT_GE(rate, 0.0);
          EXPECT_LE(rate, 1.0);
        }
        EXPECT_GT(e.duration, 0.0);
        break;
      case FaultKind::kCtl:
        ++ctls;
        EXPECT_GT(e.restart_after, 0.0);  // soak runs must come back up
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(tiers, 1);
  EXPECT_EQ(nets, 2);
  EXPECT_EQ(ctls, 1);
  // Byte-identical per seed, round-trips through the grammar.
  EXPECT_EQ(spec.ToString(), MakeRandomFaultSpec(13, 1000, profile).ToString());
  FaultSpec reparsed;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(spec.ToString(), &reparsed, &error)) << error;
  EXPECT_EQ(reparsed.ToString(), spec.ToString());
}

TEST(FaultSpecTest, ParseRejectsMalformedEntries) {
  const char* bad[] = {
      "boom@10:replica=1",              // unknown kind
      "crash@10",                       // no params separator
      "crash@-5:replica=1",             // negative time
      "crash@10:replica=x",             // non-integer id
      "crash@10:restart=5",             // required replica missing
      "disk@10:server=0",               // required factor missing
      "slow@10:factor=2",               // required replica missing
      "stats@10:replica=0,mode=half",   // unknown dropout mode
      "migration@10:delay=1,fail=1.5",  // fail rate out of range
      "crash@10:color=red",             // unknown param
  };
  for (const char* text : bad) {
    FaultSpec spec;
    std::string error;
    EXPECT_FALSE(FaultSpec::Parse(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(FaultSpecTest, RandomSpecIsByteIdenticalPerSeed) {
  EXPECT_EQ(MakeRandomFaultSpec(7, 900).ToString(),
            MakeRandomFaultSpec(7, 900).ToString());
  EXPECT_NE(MakeRandomFaultSpec(7, 900).ToString(),
            MakeRandomFaultSpec(8, 900).ToString());
}

TEST(FaultSpecTest, RandomSpecRespectsProfileBounds) {
  RandomFaultProfile profile;
  profile.replicas = 3;
  profile.servers = 2;
  const FaultSpec spec = MakeRandomFaultSpec(99, 1000, profile);
  EXPECT_EQ(spec.events.size(), 5u);  // one of each category by default
  for (const FaultEvent& e : spec.events) {
    EXPECT_GE(e.time, profile.min_time_fraction * 1000);
    EXPECT_LE(e.time, profile.max_time_fraction * 1000);
    if (e.replica >= 0) {
      EXPECT_LT(e.replica, profile.replicas);
    }
    if (e.server >= 0) {
      EXPECT_LT(e.server, profile.servers);
    }
  }
}

// --- the injector against a recording backend ---

class RecordingBackend : public FaultBackend {
 public:
  explicit RecordingBackend(Simulator* sim) : sim_(sim) {}

  bool reject_all = false;
  std::vector<std::string> log;

  bool CrashReplica(int id) override { return Note("crash", id, 0); }
  bool RestartReplica(int id) override { return Note("restart", id, 0); }
  bool SetDiskLatencyFactor(int id, double f) override {
    return Note("disk", id, f);
  }
  bool SetReplicaSlowdown(int id, double f) override {
    return Note("slow", id, f);
  }
  bool SetStatsDropout(int id, int mode) override {
    return Note("stats", id, mode);
  }

 private:
  bool Note(const char* kind, int target, double factor) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.0f %s %d %g", sim_->Now(), kind,
                  target, factor);
    log.push_back(buf);
    return !reject_all;
  }

  Simulator* sim_;
};

TEST(FaultInjectorTest, FiresRevertsAndRestartsOnSchedule) {
  Simulator sim;
  RecordingBackend backend(&sim);
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "crash@100:replica=1,restart=50;"
      "disk@30:server=0,factor=4,duration=20;"
      "stats@60:replica=0,mode=drop,duration=10",
      &spec, &error))
      << error;
  FaultInjector injector(&sim, &backend, std::move(spec), /*seed=*/1);
  injector.Arm();
  sim.RunToCompletion();
  const std::vector<std::string> expected = {
      "30 disk 0 4",     // spike applied
      "50 disk 0 1",     // reverted at 30 + 20
      "60 stats 0 1",    // drop-all dropout
      "70 stats 0 0",    // restored at 60 + 10
      "100 crash 1 0",   //
      "150 restart 1 0"  // restart 50s after the crash
  };
  EXPECT_EQ(backend.log, expected);
  EXPECT_EQ(injector.faults_injected(), 6u);
  EXPECT_EQ(injector.noop_faults(), 0u);
}

TEST(FaultInjectorTest, CountsNoopsWhenBackendRejects) {
  Simulator sim;
  RecordingBackend backend(&sim);
  backend.reject_all = true;
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse(
      "crash@10:replica=7,restart=5;slow@20:replica=9,factor=2,duration=50",
      &spec, &error))
      << error;
  FaultInjector injector(&sim, &backend, std::move(spec), /*seed=*/1);
  injector.Arm();
  sim.RunToCompletion();
  // Rejected faults schedule neither restarts nor reverts.
  EXPECT_EQ(backend.log.size(), 2u);
  EXPECT_EQ(injector.faults_injected(), 0u);
  EXPECT_EQ(injector.noop_faults(), 2u);
}

TEST(FaultInjectorTest, MigrationDecisionsAreSeedDeterministic) {
  auto draw = [](uint64_t seed) {
    Simulator sim;
    RecordingBackend backend(&sim);
    FaultSpec spec;
    std::string error;
    EXPECT_TRUE(FaultSpec::Parse("migration@0:delay=3,fail=0.5,duration=1000",
                                 &spec, &error))
        << error;
    FaultInjector injector(&sim, &backend, std::move(spec), seed);
    injector.Arm();
    sim.RunUntil(1);
    EXPECT_TRUE(injector.migration_window_active());
    std::string sequence;
    for (int i = 0; i < 64; ++i) {
      const auto d = injector.OnMigrationAttempt(/*class_key=*/123, i);
      sequence += d.fail ? 'F' : (d.delay_seconds > 0 ? 'D' : '.');
    }
    return sequence;
  };
  const std::string a = draw(11);
  EXPECT_EQ(a, draw(11));
  EXPECT_NE(a, draw(12));
  // Inside the window every attempt either fails or is delayed.
  EXPECT_EQ(a.find('.'), std::string::npos);
  EXPECT_NE(a.find('F'), std::string::npos);
  EXPECT_NE(a.find('D'), std::string::npos);
}

TEST(FaultInjectorTest, NoInterferenceOutsideMigrationWindow) {
  Simulator sim;
  RecordingBackend backend(&sim);
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(FaultSpec::Parse("migration@10:delay=5,fail=1,duration=20",
                               &spec, &error))
      << error;
  FaultInjector injector(&sim, &backend, std::move(spec), /*seed=*/3);
  injector.Arm();
  sim.RunUntil(5);  // before the window opens
  EXPECT_FALSE(injector.migration_window_active());
  auto d = injector.OnMigrationAttempt(1, 1);
  EXPECT_FALSE(d.fail);
  EXPECT_DOUBLE_EQ(d.delay_seconds, 0.0);
  sim.RunUntil(20);  // inside
  EXPECT_TRUE(injector.migration_window_active());
  EXPECT_TRUE(injector.OnMigrationAttempt(1, 1).fail);  // fail=1
  sim.RunUntil(35);  // window reverted at t = 30
  EXPECT_FALSE(injector.migration_window_active());
  d = injector.OnMigrationAttempt(1, 1);
  EXPECT_FALSE(d.fail);
  EXPECT_DOUBLE_EQ(d.delay_seconds, 0.0);
}

// --- end-to-end deterministic replay (the PR's acceptance check) ---

struct ChaosRun {
  std::string schedule;
  std::vector<std::string> trace;  // the whole buffered decision trace
  uint64_t completed = 0;
};

// A chaos-replica style scenario: TPC-W on two replicas plus RUBiS
// sharing one of them, with a crash/restart, a stats dropout and a
// migration-fault window injected mid-run.
ChaosRun RunChaos(uint64_t fault_seed) {
  SelectiveRetuner::Config config;
  config.max_migrations_per_interval = 2;
  ClusterHarness h(config);
  h.trace().EnableBuffering();
  h.AddServers(3);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  RubisOptions rubis_options;
  rubis_options.app_id = 2;
  Scheduler* rubis = h.AddApplication(MakeRubis(rubis_options));
  Replica* shared = h.resources().CreateReplica(
      h.resources().servers()[0].get(), 8192);
  Replica* spare = h.resources().CreateReplica(
      h.resources().servers()[1].get(), 8192, /*engine_seed=*/2);
  tpcw->AddReplica(shared);
  tpcw->AddReplica(spare);
  rubis->AddReplica(shared);
  h.AddConstantClients(tpcw, 120, /*seed=*/7);
  h.AddConstantClients(rubis, 40, /*seed=*/8);

  FaultSpec spec;
  std::string error;
  EXPECT_TRUE(FaultSpec::Parse(
      "crash@150:replica=1,restart=60;"
      "stats@200:replica=0,mode=partial,duration=60;"
      "migration@100:delay=2,fail=0.4,duration=200",
      &spec, &error))
      << error;
  h.InjectFaults(std::move(spec), fault_seed);
  h.Start();
  h.RunFor(420);

  ChaosRun out;
  out.schedule = h.fault_injector()->spec().ToString();
  const std::vector<std::string> lines = h.trace().BufferedLines();
  std::string check_error;
  EXPECT_TRUE(CheckTraceLines(lines, &check_error)) << check_error;
  out.trace = lines;
  out.completed = tpcw->total_completed() + rubis->total_completed();
  return out;
}

TEST(ChaosDeterminismTest, IdenticalSeedsReplayByteIdentically) {
  const ChaosRun a = RunChaos(5);
  const ChaosRun b = RunChaos(5);
  EXPECT_FALSE(a.schedule.empty());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_TRUE(SameTrace(a.trace, b.trace));
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_GT(a.completed, 0u);
}

TEST(ChaosRecoveryTest, SlaReMetAfterCrashWindowWithBoundedMigrations) {
  SelectiveRetuner::Config config;
  config.max_migrations_per_interval = 2;
  ClusterHarness h(config);
  h.trace().EnableBuffering();
  h.AddServers(3);
  Scheduler* tpcw = h.AddApplication(MakeTpcw());
  Replica* a = h.resources().CreateReplica(
      h.resources().servers()[0].get(), 8192);
  Replica* b = h.resources().CreateReplica(
      h.resources().servers()[1].get(), 8192, /*engine_seed=*/2);
  tpcw->AddReplica(a);
  tpcw->AddReplica(b);
  h.AddConstantClients(tpcw, 160, /*seed=*/31);

  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(
      FaultSpec::Parse("crash@150:replica=1,restart=60", &spec, &error))
      << error;
  h.InjectFaults(std::move(spec), /*seed=*/5);
  h.Start();
  h.RunFor(480);

  // The crash and its restart both applied (nothing degenerated into a
  // no-op), and the app kept serving capacity. The controller may have
  // legitimately released spare replicas again once load allowed.
  EXPECT_EQ(h.fault_injector()->faults_injected(), 2u);
  EXPECT_EQ(h.fault_injector()->noop_faults(), 0u);
  EXPECT_GE(tpcw->replicas().size(), 1u);

  // SLA re-met after the fault window (restart at t = 210 + warmup).
  const auto tail = h.Summarize(tpcw->app().id, 360, 480);
  EXPECT_GT(tail.queries, 0u);
  EXPECT_LT(tail.avg_latency, tpcw->app().sla_latency_seconds);
  EXPECT_LE(tail.sla_violations, 1);

  // Bounded migrations, read back from the decision trace: recovery
  // must not degenerate into class-placement flapping.
  int migrations = 0;
  for (const std::string& line : h.trace().BufferedLines()) {
    JsonValue event;
    std::string parse_error;
    ASSERT_TRUE(JsonValue::Parse(line, &event, &parse_error)) << parse_error;
    if (event.StringOr("phase", "") != "action") continue;
    const std::string kind = event.StringOr("kind", "");
    if (kind == "class_rescheduled" || kind == "io_eviction") ++migrations;
  }
  EXPECT_LE(migrations, 10);
  const auto& stats = h.retuner().migration_stats();
  EXPECT_LE(stats.max_attempts_observed,
            1 + h.retuner().config().migration_max_retries);
  EXPECT_LE(stats.applied + stats.abandoned, stats.started);
}

}  // namespace
}  // namespace fglb
