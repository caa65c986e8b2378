#include "common/trace_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"

namespace fglb {
namespace {

JsonValue MustParse(const std::string& line) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(JsonValue::Parse(line, &value, &error))
      << error << " in: " << line;
  return value;
}

TEST(TraceLogTest, DisabledByDefaultAndEmitIsNoOp) {
  TraceLog log;
  EXPECT_FALSE(log.enabled());
  log.Emit(TraceEvent("sla"));
  EXPECT_EQ(log.events_emitted(), 0u);
  EXPECT_TRUE(log.BufferedLines().empty());
}

TEST(TraceLogTest, BufferedEventsCarryHeaderAndSequence) {
  TraceLog log;
  log.EnableBuffering();
  ASSERT_TRUE(log.enabled());
  log.Emit(TraceEvent("sla").Num("t", 30));
  log.Emit(TraceEvent("action").Str("kind", "none"));
  EXPECT_EQ(log.events_emitted(), 2u);

  const std::vector<std::string> lines = log.BufferedLines();
  ASSERT_EQ(lines.size(), 2u);
  for (size_t i = 0; i < lines.size(); ++i) {
    const JsonValue event = MustParse(lines[i]);
    EXPECT_DOUBLE_EQ(event.NumberOr("v", -1), TraceLog::kSchemaVersion);
    EXPECT_DOUBLE_EQ(event.NumberOr("seq", -1),
                     static_cast<double>(i));
    // The header is v/seq/phase only: no wall-clock stamp.
    EXPECT_EQ(event.Find("mono_us"), nullptr);
  }
  EXPECT_EQ(MustParse(lines[0]).StringOr("phase", ""), "sla");
  EXPECT_EQ(MustParse(lines[1]).StringOr("phase", ""), "action");
}

TEST(TraceLogTest, AllFieldTypesRoundTrip) {
  TraceLog log;
  log.EnableBuffering();
  log.Emit(TraceEvent("iqr")
               .Str("name", "metric \"latency\"\nline2\t\\end")
               .Num("ratio", 1.53125)
               .Int("delta", -42)
               .Uint("big", 12345678901234567890ull)
               .Bool("high", true)
               .Bool("low", false)
               .Raw("fences", "[{\"q1\":1,\"q3\":3}]"));
  const std::vector<std::string> lines = log.BufferedLines();
  ASSERT_EQ(lines.size(), 1u);
  const JsonValue event = MustParse(lines[0]);
  EXPECT_EQ(event.StringOr("name", ""), "metric \"latency\"\nline2\t\\end");
  EXPECT_DOUBLE_EQ(event.NumberOr("ratio", 0), 1.53125);
  EXPECT_DOUBLE_EQ(event.NumberOr("delta", 0), -42);
  // %.17g-free path: Uint is emitted as an integer literal; the parsed
  // double is the nearest representable value.
  EXPECT_NEAR(event.NumberOr("big", 0), 12345678901234567890.0, 1e4);
  EXPECT_TRUE(event.BoolOr("high", false));
  EXPECT_FALSE(event.BoolOr("low", true));
  const JsonValue* fences = event.Find("fences");
  ASSERT_NE(fences, nullptr);
  ASSERT_TRUE(fences->is_array());
  ASSERT_EQ(fences->array.size(), 1u);
  EXPECT_DOUBLE_EQ(fences->array[0].NumberOr("q1", 0), 1);
  EXPECT_DOUBLE_EQ(fences->array[0].NumberOr("q3", 0), 3);
}

TEST(TraceLogTest, CloseDisablesFileModeEmission) {
  const std::string path = ::testing::TempDir() + "/fglb_trace_close.jsonl";
  TraceLog log;
  std::string error;
  ASSERT_TRUE(log.OpenFile(path, &error)) << error;
  log.Emit(TraceEvent("sla"));
  log.Close();
  EXPECT_FALSE(log.enabled());
  log.Emit(TraceEvent("sla"));
  EXPECT_EQ(log.events_emitted(), 1u);
  std::remove(path.c_str());
}

TEST(TraceLogTest, FileModeWritesOneJsonObjectPerLine) {
  const std::string path = ::testing::TempDir() + "/fglb_trace_test.jsonl";
  {
    TraceLog log;
    std::string error;
    ASSERT_TRUE(log.OpenFile(path, &error)) << error;
    log.Emit(TraceEvent("sla").Num("t", 30).Bool("sla_met", false));
    log.Emit(TraceEvent("mrc").Num("ratio", 12.5));
    log.Close();
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::vector<std::string> lines;
  std::string current;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_TRUE(current.empty());  // file ends with a newline
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue first = MustParse(lines[0]);
  EXPECT_EQ(first.StringOr("phase", ""), "sla");
  EXPECT_FALSE(first.BoolOr("sla_met", true));
  const JsonValue second = MustParse(lines[1]);
  EXPECT_EQ(second.StringOr("phase", ""), "mrc");
  EXPECT_DOUBLE_EQ(second.NumberOr("ratio", 0), 12.5);
  EXPECT_DOUBLE_EQ(second.NumberOr("seq", -1), 1);
}

TEST(TraceLogTest, OpenFileFailureReportsError) {
  TraceLog log;
  std::string error;
  EXPECT_FALSE(log.OpenFile("/nonexistent-dir/zzz/trace.jsonl", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(log.enabled());
}

}  // namespace
}  // namespace fglb
