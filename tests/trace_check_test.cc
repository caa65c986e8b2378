// The decoder behind fglb_tracecat --check, --spans and every trace
// test: common/json's parser and CheckTraceLines. Hand-written lines
// pin each rule (nesting cap, RFC 8259 number grammar, duplicate keys,
// integer counters, per-replica report_seq continuity, old traces
// still accepted), and a seeded mutation run over real buffered trace
// lines requires a clean verdict on every input — it runs in the
// ASan+UBSan whole-suite leg.

#include "common/trace_check.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "scenarios/harness.h"
#include "sim/fault_injector.h"
#include "trace_compare.h"
#include "workload/rubis.h"
#include "workload/tpcw.h"

namespace fglb {
namespace {

bool Parses(std::string_view text, JsonValue* out = nullptr) {
  JsonValue value;
  std::string error;
  const bool ok = JsonValue::Parse(text, &value, &error);
  EXPECT_EQ(ok, error.empty()) << error;
  if (out != nullptr) *out = std::move(value);
  return ok;
}

std::string CheckError(const std::vector<std::string>& lines) {
  std::string error;
  if (CheckTraceLines(lines, &error)) return "";
  EXPECT_FALSE(error.empty());
  return error;
}

// One per-replica stats-channel recovery event as StatsChannel writes it.
std::string RecoveryLine(int seq, const char* why, int replica,
                         const std::string& report_seq, int stale) {
  return "{\"v\":1,\"seq\":" + std::to_string(seq) +
         ",\"phase\":\"recovery\",\"t\":" + std::to_string(30 * (seq + 1)) +
         ",\"why\":\"" + why + "\",\"replica\":" + std::to_string(replica) +
         ",\"report_seq\":" + report_seq +
         ",\"stale_intervals\":" + std::to_string(stale) + ",\"conf\":1}";
}

TEST(TraceCheckTest, ReportSeqRegressionIsRejected) {
  const std::vector<std::string> ok = {
      RecoveryLine(0, "report_lost", 0, "14", 1),
      RecoveryLine(1, "stats_resync", 0, "16", 1),
  };
  EXPECT_EQ(CheckError(ok), "");
  const std::vector<std::string> regressed = {
      RecoveryLine(0, "report_lost", 0, "14", 1),
      RecoveryLine(1, "stats_resync", 0, "3", 1),
  };
  EXPECT_NE(CheckError(regressed).find("replica 0 report seq regressed"),
            std::string::npos);
  // Another replica's sequence is independent.
  const std::vector<std::string> other_replica = {
      RecoveryLine(0, "report_lost", 0, "14", 1),
      RecoveryLine(1, "report_lost", 1, "3", 1),
  };
  EXPECT_EQ(CheckError(other_replica), "");
}

TEST(TraceCheckTest, RecoveryPayloadSeqCollidingWithHeaderIsRejected) {
  // Before report_seq, the payload reused the header's "seq" key; the
  // first copy won and the report sequence was never checked. Such a
  // line is now a duplicate-key error, and a missing report_seq is
  // named.
  const std::string legacy =
      "{\"v\":1,\"seq\":0,\"mono_us\":5,\"phase\":\"recovery\",\"t\":30,"
      "\"why\":\"report_lost\",\"replica\":0,\"seq\":14,"
      "\"stale_intervals\":1,\"conf\":0.5}";
  EXPECT_NE(CheckError({legacy}).find("duplicate key \"seq\""),
            std::string::npos);
  const std::string missing =
      "{\"v\":1,\"seq\":0,\"phase\":\"recovery\",\"t\":30,"
      "\"why\":\"report_lost\",\"replica\":0,\"stale_intervals\":1}";
  EXPECT_NE(CheckError({missing}).find("report_seq"), std::string::npos);
}

TEST(TraceCheckTest, DeepNestingFailsCleanly) {
  // Two million '[' once recursed until the stack ran out.
  const std::string deep(2000000, '[');
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &value, &error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
  EXPECT_NE(CheckError({deep}), "");
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  JsonValue unused;
  EXPECT_FALSE(JsonValue::Parse(objects, &unused, &error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;

  // Every in-repo producer nests far below the cap.
  std::string nested = "1";
  for (int i = 0; i < 100; ++i) nested = "[{\"k\":" + nested + "}]";
  EXPECT_TRUE(Parses(nested));
}

TEST(TraceCheckTest, NumbersFollowTheJsonGrammar) {
  for (const char* bad :
       {"nan", "-nan", "NaN", "infinity", "-infinity", "inf", "0x0", "0x1p3",
        "+1", "01", "-01", "1.", ".5", "-", "1e", "1e+", "1.e3", "--1",
        "1e999", "-1e999"}) {
    EXPECT_FALSE(Parses(bad)) << bad;
    EXPECT_FALSE(Parses(std::string("[") + bad + "]")) << bad;
  }
  JsonValue value;
  for (const auto& [text, expected] :
       std::vector<std::pair<const char*, double>>{{"0", 0},
                                                   {"-0", 0},
                                                   {"12", 12},
                                                   {"-3.25", -3.25},
                                                   {"1.5e-3", 1.5e-3},
                                                   {"2E+2", 200},
                                                   {"1e-999", 0}}) {
    ASSERT_TRUE(Parses(text, &value)) << text;
    EXPECT_EQ(value.number, expected) << text;
  }
  // The parser converts only the scanned span: a view that stops
  // before more digits (and is not NUL-terminated) reads as itself.
  const std::string buffer = "1.5e3999";
  ASSERT_TRUE(Parses(std::string_view(buffer).substr(0, 3), &value));
  EXPECT_EQ(value.number, 1.5);
  ASSERT_TRUE(Parses(std::string_view(buffer).substr(0, 5), &value));
  EXPECT_EQ(value.number, 1500);

  // The line strtod used to let through --check.
  EXPECT_NE(CheckError({"{\"v\":1,\"seq\":0x0,\"mono_us\":infinity,"
                        "\"phase\":\"sla\",\"t\":-nan}"}),
            "");
}

TEST(TraceCheckTest, DuplicateKeysAreRejected) {
  EXPECT_FALSE(Parses("{\"a\":1,\"a\":2}"));
  EXPECT_FALSE(Parses("{\"a\":1,\"b\":{\"c\":1,\"c\":1}}"));
  EXPECT_FALSE(Parses("[{\"a\":1},{\"b\":1,\"b\":null}]"));
  // Equal keys in different objects are fine.
  EXPECT_TRUE(Parses("[{\"a\":1},{\"a\":2}]"));
  EXPECT_TRUE(Parses("{\"a\":{\"a\":1}}"));
}

TEST(TraceCheckTest, CountersMustBeIntegersInDoubleExactRange) {
  // Truncation once read 0.5, 1.9 as a gapless 0, 1.
  EXPECT_NE(CheckError({"{\"v\":1,\"seq\":0.5,\"phase\":\"sla\"}",
                        "{\"v\":1,\"seq\":1.9,\"phase\":\"sla\"}"}),
            "");
  for (const char* seq : {"-1", "1e300", "9007199254740992", "\"0\"", "true",
                          "null"}) {
    EXPECT_NE(
        CheckError({std::string("{\"v\":1,\"seq\":") + seq +
                    ",\"phase\":\"sla\"}"}),
        "")
        << seq;
  }
  EXPECT_EQ(CheckError({"{\"v\":1,\"seq\":0,\"phase\":\"sla\"}",
                        "{\"v\":1,\"seq\":1.0,\"phase\":\"sla\"}"}),
            "");
  // The per-replica counters follow the same rule.
  EXPECT_NE(CheckError({RecoveryLine(0, "report_lost", 0, "2.5", 1)})
                .find("report_seq"),
            std::string::npos);
  EXPECT_NE(CheckError({RecoveryLine(0, "report_lost", 0, "-1", 1)})
                .find("report_seq"),
            std::string::npos);
  const std::string fractional_replica =
      "{\"v\":1,\"seq\":0,\"phase\":\"recovery\",\"why\":\"report_lost\","
      "\"replica\":0.5,\"report_seq\":2,\"stale_intervals\":1}";
  EXPECT_NE(CheckError({fractional_replica}).find("replica"),
            std::string::npos);
  const std::string fractional_stale =
      "{\"v\":1,\"seq\":0,\"phase\":\"recovery\",\"why\":\"report_lost\","
      "\"replica\":0,\"report_seq\":2,\"stale_intervals\":1.5}";
  EXPECT_NE(CheckError({fractional_stale}).find("stale_intervals"),
            std::string::npos);
}

TEST(TraceCheckTest, OldFaultFreeTraceWithWallClockFieldsStillPasses) {
  // The header once carried mono_us and the diagnosis phases dur_us;
  // the checker ignores both.
  const std::vector<std::string> old = {
      "{\"v\":1,\"seq\":0,\"mono_us\":812,\"phase\":\"sla\",\"t\":330,"
      "\"app\":1,\"sla_met\":false,\"dur_us\":41.5,\"stats_conf\":1}",
      "{\"v\":1,\"seq\":1,\"mono_us\":901,\"phase\":\"impact\",\"t\":330,"
      "\"app\":1,\"skipped\":true,\"why\":\"warmup\",\"dur_us\":0}",
      "{\"v\":1,\"seq\":2,\"mono_us\":955,\"phase\":\"action\",\"t\":330,"
      "\"app\":1,\"kind\":\"none\",\"why\":\"warmup\"}",
  };
  EXPECT_EQ(CheckError(old), "");
}

// ---- seeded mutation run over real trace lines ----

// Real buffered lines: a fault-free consolidation run and a chaos-net
// run (lossy stats channel, so per-replica recovery events appear).
std::vector<std::string> CorpusLines() {
  std::vector<std::string> corpus;
  auto assemble = [](ClusterHarness* h, bool chaos) {
    h->AddServers(4);
    Scheduler* tpcw = h->AddApplication(MakeTpcw());
    RubisOptions rubis_options;
    rubis_options.app_id = 2;
    Scheduler* rubis = h->AddApplication(MakeRubis(rubis_options));
    Replica* shared =
        h->resources().CreateReplica(h->resources().servers()[0].get(), 8192);
    tpcw->AddReplica(shared);
    rubis->AddReplica(shared);
    if (chaos) {
      tpcw->AddReplica(h->resources().CreateReplica(
          h->resources().servers()[1].get(), 8192, /*engine_seed=*/2));
    }
    h->AddConstantClients(tpcw, 120, /*seed=*/1);
    h->AddClients(rubis,
                  std::make_unique<StepLoad>(
                      std::vector<std::pair<SimTime, double>>{{200, 45}}),
                  /*seed=*/2);
  };
  {
    ClusterHarness h;
    h.trace().EnableBuffering();
    assemble(&h, false);
    h.Start();
    h.RunFor(600);
    for (std::string& line : h.trace().BufferedLines()) {
      corpus.push_back(std::move(line));
    }
  }
  {
    SelectiveRetuner::Config config;
    config.max_migrations_per_interval = 2;
    ClusterHarness h(config);
    h.trace().EnableBuffering();
    assemble(&h, true);
    FaultSpec spec;
    std::string error;
    EXPECT_TRUE(FaultSpec::Parse(
        "net@200:drop=0.2,dup=0.03,corrupt=0.02,reorder=0.05,delay=1,"
        "duration=300",
        &spec, &error))
        << error;
    h.InjectFaults(std::move(spec), /*seed=*/7);
    h.Start();
    h.RunFor(600);
    for (std::string& line : h.trace().BufferedLines()) {
      corpus.push_back(std::move(line));
    }
  }
  return corpus;
}

// Rewrites the header sequence number ("{"v":1,"seq":N,...") so a
// window cut from the middle of a trace starts gapless at 0.
std::string Renumber(const std::string& line, size_t seq) {
  const std::string prefix = "{\"v\":1,\"seq\":";
  if (line.rfind(prefix, 0) != 0) return line;
  const size_t end = line.find(',', prefix.size());
  if (end == std::string::npos) return line;
  return prefix + std::to_string(seq) + line.substr(end);
}

// Dictionary tokens: JSON structure, the non-JSON numbers strtod used
// to accept, and the trace keys the checker reads.
const char* const kTokens[] = {
    "[", "{", "\"", "nan", "1e999", "\\u", "\"seq\"", "}", "]", ",", ":",
    "-", "0x0", "\\u00", "null", "1.5", "\"replica\"", "\"report_seq\"",
    "\"phase\":\"recovery\"", "\"why\":\"report_lost\"", "\"tier2_pages\":"};

void Mutate(Rng* rng, const std::vector<std::string>& corpus,
            std::string* line) {
  const int rounds = static_cast<int>(rng->UniformInt(1, 3));
  for (int r = 0; r < rounds; ++r) {
    const size_t at =
        line->empty() ? 0 : rng->NextUint64(line->size() + 1);
    switch (rng->NextUint64(5)) {
      case 0:  // bit flip
        if (!line->empty()) {
          const size_t i = rng->NextUint64(line->size());
          (*line)[i] = static_cast<char>(
              static_cast<unsigned char>((*line)[i]) ^
              (1u << rng->NextUint64(8)));
        }
        break;
      case 1:  // truncation
        line->resize(at);
        break;
      case 2: {  // splice: this line's head, another line's tail
        const std::string& other = corpus[rng->NextUint64(corpus.size())];
        const size_t from =
            other.empty() ? 0 : rng->NextUint64(other.size() + 1);
        *line = line->substr(0, at) + other.substr(from);
        break;
      }
      case 3:  // dictionary token, inserted
        line->insert(at, kTokens[rng->NextUint64(std::size(kTokens))]);
        break;
      default: {  // dictionary token, overwriting
        const std::string token = kTokens[rng->NextUint64(std::size(kTokens))];
        line->replace(at, token.size(), token);
        break;
      }
    }
  }
}

TEST(TraceCheckMutationTest, MutatedRealTraceLinesGetACleanVerdict) {
  const std::vector<std::string> corpus = CorpusLines();
  ASSERT_GT(corpus.size(), 40u);
  ASSERT_TRUE(AnyLineContains(corpus, "\"report_seq\""))
      << "the chaos-net run lost no reports";

  Rng rng(20261020);
  constexpr int kInputs = 100000;
  int parsed = 0, rejected = 0, checked = 0;
  for (int i = 0; i < kInputs; ++i) {
    // A window of up to three consecutive lines, renumbered from 0, so
    // the checker's per-replica state sees real neighbours.
    const size_t width = 1 + rng.NextUint64(3);
    const size_t start = rng.NextUint64(corpus.size() - width + 1);
    std::vector<std::string> window;
    for (size_t k = 0; k < width; ++k) {
      window.push_back(Renumber(corpus[start + k], k));
    }
    std::string& victim = window[rng.NextUint64(width)];
    Mutate(&rng, corpus, &victim);

    JsonValue value;
    std::string error;
    if (JsonValue::Parse(victim, &value, &error)) {
      ++parsed;
      // Accepted input re-serializes to a fixed point.
      const std::string dumped = value.Dump();
      JsonValue again;
      ASSERT_TRUE(JsonValue::Parse(dumped, &again, &error))
          << error << " in: " << dumped;
      ASSERT_EQ(again.Dump(), dumped);
    } else {
      ++rejected;
      ASSERT_FALSE(error.empty());
    }
    std::string check_error;
    if (CheckTraceLines(window, &check_error)) {
      ++checked;
    } else {
      ASSERT_EQ(check_error.rfind("line ", 0), 0u) << check_error;
    }
  }
  // Both verdicts must be common, or the mutations are too weak (or
  // too strong) to probe the decoder.
  EXPECT_GT(parsed, kInputs / 20);
  EXPECT_GT(rejected, kInputs / 20);
  EXPECT_GT(checked, kInputs / 50);
}

}  // namespace
}  // namespace fglb
