#ifndef FGLB_COMMON_TRACE_LOG_H_
#define FGLB_COMMON_TRACE_LOG_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace fglb {

// One structured decision-trace event under construction: an ordered
// list of JSON fields appended behind the common header the TraceLog
// writes ("v", "seq"). Build one only behind a
// `trace->enabled()` check — the disabled path must not pay for field
// formatting.
class TraceEvent {
 public:
  explicit TraceEvent(std::string_view phase);

  TraceEvent& Str(std::string_view key, std::string_view value);
  TraceEvent& Num(std::string_view key, double value);
  TraceEvent& Int(std::string_view key, int64_t value);
  TraceEvent& Uint(std::string_view key, uint64_t value);
  TraceEvent& Bool(std::string_view key, bool value);
  // Pre-encoded JSON (arrays / nested objects); the caller guarantees
  // validity.
  TraceEvent& Raw(std::string_view key, std::string_view json);

 private:
  friend class TraceLog;
  std::string fields_;  // ,"key":value,"key":value...
};

// Append-only JSONL decision trace: one self-contained JSON object per
// line, schema version tagged ("v":1) and sequence-numbered. Every
// field derives from simulated state, never from the wall clock, so
// two runs of one invocation (or a run and its replay) write the same
// bytes. Disabled by default; `enabled()` is a plain bool so
// un-traced runs pay a single branch per would-be event. Emission is
// mutex-serialized, so events from worker threads interleave
// whole-line.
class TraceLog {
 public:
  static constexpr int kSchemaVersion = 1;

  TraceLog() = default;
  ~TraceLog();
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  // Starts writing events to `path` (truncates). Returns false with a
  // message in *error on failure.
  bool OpenFile(const std::string& path, std::string* error);

  // Collects emitted lines in memory instead of a file (tests and the
  // in-process inspectors).
  void EnableBuffering();

  bool enabled() const { return enabled_; }

  // Appends the event as one line. No-op when disabled.
  void Emit(const TraceEvent& event);

  void Flush();
  void Close();  // flushes and disables

  uint64_t events_emitted() const;

  // Buffered lines (EnableBuffering mode); empty in file mode.
  std::vector<std::string> BufferedLines() const;

 private:
  mutable std::mutex mu_;
  bool enabled_ = false;
  std::FILE* file_ = nullptr;
  bool buffering_ = false;
  std::vector<std::string> buffer_;
  uint64_t next_seq_ = 0;
};

}  // namespace fglb

#endif  // FGLB_COMMON_TRACE_LOG_H_
