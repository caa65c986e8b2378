#include "common/trace_check.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>

namespace fglb {

namespace {

std::string LineError(size_t line_number, const std::string& message) {
  return "line " + std::to_string(line_number) + ": " + message;
}

// Reads `key` as an integer in [0, 2^53), the range a double holds
// exactly; false when it is absent, not a number, fractional or out of
// range.
bool CountField(const JsonValue& event, const char* key, int64_t* out) {
  const JsonValue* value = event.Find(key);
  if (value == nullptr || value->kind != JsonValue::Kind::kNumber) {
    return false;
  }
  const double x = value->number;
  if (!(x >= 0 && x < 9007199254740992.0) || x != std::floor(x)) return false;
  *out = static_cast<int64_t>(x);
  return true;
}

bool KnownRecoveryWhy(const std::string& why) {
  return why == "restored" || why == "bad_ckpt" || why == "no_ckpt" ||
         why == "stats_resync" || why == "report_lost";
}

}  // namespace

bool CheckTraceLines(const std::vector<std::string>& lines,
                     std::string* error) {
  int64_t last_seq = -1;
  // Per-replica stats-channel state threaded through phase=recovery
  // events: the report sequence number must never regress, and
  // stale_intervals must count up by one per lost report within a
  // staleness episode (a stats_resync ends the episode).
  std::map<int64_t, int64_t> last_report_seq;
  std::map<int64_t, int64_t> last_stale;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    JsonValue event;
    std::string parse_error;
    if (!JsonValue::Parse(line, &event, &parse_error)) {
      *error = LineError(i + 1, parse_error);
      return false;
    }
    const char* missing = nullptr;
    int64_t seq = -1;
    if (!event.is_object()) missing = "(not an object)";
    else if (event.NumberOr("v", 0) != 1) missing = "v";
    else if (!CountField(event, "seq", &seq)) missing = "seq";
    else if (event.StringOr("phase", "").empty()) missing = "phase";
    if (missing != nullptr) {
      *error = LineError(i + 1, std::string("missing/invalid field ") +
                                    missing);
      return false;
    }
    if (seq != last_seq + 1) {
      *error = LineError(i + 1, "sequence gap (" + std::to_string(seq) +
                                    " after " + std::to_string(last_seq) +
                                    ")");
      return false;
    }
    last_seq = seq;
    if (event.StringOr("phase", "") == "recovery") {
      const std::string why = event.StringOr("why", "");
      if (!KnownRecoveryWhy(why)) {
        *error = LineError(i + 1, "unknown recovery why: " +
                                      (why.empty() ? "(missing)" : why));
        return false;
      }
      if (event.Find("replica") == nullptr) {
        // A controller-level restore/cold-start replaces the receiver
        // state wholesale; per-replica continuity restarts from there.
        if (why == "stats_resync" || why == "report_lost") {
          *error = LineError(i + 1, "channel recovery event without replica");
          return false;
        }
        last_report_seq.clear();
        last_stale.clear();
      } else {
        if (why != "stats_resync" && why != "report_lost") {
          *error = LineError(i + 1, "controller recovery event with replica");
          return false;
        }
        int64_t id = 0;
        int64_t report_seq = 0;
        int64_t stale = 0;
        const char* bad = nullptr;
        if (!CountField(event, "replica", &id)) {
          bad = "replica";
        } else if (!CountField(event, "report_seq", &report_seq)) {
          bad = "report_seq";
        } else if (!CountField(event, "stale_intervals", &stale)) {
          bad = "stale_intervals";
        }
        if (bad != nullptr) {
          *error = LineError(i + 1, std::string("missing/invalid field ") +
                                        bad);
          return false;
        }
        auto seq_it = last_report_seq.find(id);
        if (seq_it != last_report_seq.end() && report_seq < seq_it->second) {
          *error = LineError(
              i + 1, "replica " + std::to_string(id) +
                         " report seq regressed (" +
                         std::to_string(report_seq) + " after " +
                         std::to_string(seq_it->second) + ")");
          return false;
        }
        last_report_seq[id] = report_seq;
        auto stale_it = last_stale.find(id);
        if (why == "report_lost") {
          // Within an episode the counter steps by exactly one; after a
          // restore (maps cleared) any starting point is legal.
          if (stale < 1 ||
              (stale_it != last_stale.end() &&
               stale != stale_it->second + 1)) {
            *error = LineError(
                i + 1, "replica " + std::to_string(id) +
                           " stale_intervals not monotone (" +
                           std::to_string(stale) + ")");
            return false;
          }
          last_stale[id] = stale;
        } else {  // stats_resync reports the episode length it ended
          if (stale < 1 ||
              (stale_it != last_stale.end() && stale_it->second != 0 &&
               stale != stale_it->second)) {
            *error = LineError(
                i + 1, "replica " + std::to_string(id) +
                           " resync with inconsistent stale_intervals (" +
                           std::to_string(stale) + ")");
            return false;
          }
          last_stale[id] = 0;
        }
      }
    }
    // phase=mrc events from tiered engines carry the tier fields as a
    // unit: a partial or nonsensical set means the producer is broken,
    // not merely tierless (tierless events omit all three).
    if (event.StringOr("phase", "") == "mrc") {
      const JsonValue* pages = event.Find("tier2_pages");
      const JsonValue* resident = event.Find("tier2_resident");
      const JsonValue* read_us = event.Find("tier2_read_us");
      if (pages != nullptr || resident != nullptr || read_us != nullptr) {
        const char* bad = nullptr;
        if (pages == nullptr || pages->kind != JsonValue::Kind::kNumber ||
            pages->number <= 0) {
          bad = "tier2_pages";
        } else if (resident == nullptr ||
                   resident->kind != JsonValue::Kind::kNumber ||
                   resident->number < 0 ||
                   resident->number > pages->number) {
          bad = "tier2_resident";
        } else if (read_us == nullptr ||
                   read_us->kind != JsonValue::Kind::kNumber ||
                   read_us->number <= 0) {
          bad = "tier2_read_us";
        }
        if (bad != nullptr) {
          *error = LineError(i + 1, std::string("malformed tier spec: ") +
                                        bad);
          return false;
        }
      }
    }
  }
  return true;
}

std::string FormatActionEventLine(const JsonValue& event) {
  if (event.StringOr("kind", "") == "none") return "";
  char buf[320];
  std::snprintf(buf, sizeof(buf), "t=%7.0f  [%s]  %s\n",
                event.NumberOr("t", 0),
                event.StringOr("kind", "?").c_str(),
                event.StringOr("desc", "").c_str());
  return buf;
}

}  // namespace fglb
