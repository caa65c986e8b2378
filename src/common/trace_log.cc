#include "common/trace_log.h"

#include "common/json.h"

namespace fglb {

TraceEvent::TraceEvent(std::string_view phase) {
  fields_.reserve(160);
  Str("phase", phase);
}

TraceEvent& TraceEvent::Str(std::string_view key, std::string_view value) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":\"";
  fields_ += JsonEscape(value);
  fields_ += '"';
  return *this;
}

TraceEvent& TraceEvent::Num(std::string_view key, double value) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":";
  fields_ += JsonNumber(value);
  return *this;
}

TraceEvent& TraceEvent::Int(std::string_view key, int64_t value) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":";
  fields_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::Uint(std::string_view key, uint64_t value) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":";
  fields_ += std::to_string(value);
  return *this;
}

TraceEvent& TraceEvent::Bool(std::string_view key, bool value) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":";
  fields_ += value ? "true" : "false";
  return *this;
}

TraceEvent& TraceEvent::Raw(std::string_view key, std::string_view json) {
  fields_ += ",\"";
  fields_ += JsonEscape(key);
  fields_ += "\":";
  fields_ += json;
  return *this;
}

TraceLog::~TraceLog() { Close(); }

bool TraceLog::OpenFile(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open trace file " + path;
    enabled_ = buffering_;
    return false;
  }
  enabled_ = true;
  return true;
}

void TraceLog::EnableBuffering() {
  std::lock_guard<std::mutex> lock(mu_);
  buffering_ = true;
  enabled_ = true;
}

void TraceLog::Emit(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  std::string line = "{\"v\":" + std::to_string(kSchemaVersion) +
                     ",\"seq\":" + std::to_string(next_seq_++) +
                     event.fields_ + "}";
  if (buffering_) buffer_.push_back(line);
  if (file_ != nullptr) {
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), file_);
  }
}

void TraceLog::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fflush(file_);
}

void TraceLog::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!buffering_) enabled_ = false;
}

uint64_t TraceLog::events_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::vector<std::string> TraceLog::BufferedLines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffer_;
}

}  // namespace fglb
