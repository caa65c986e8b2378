#ifndef FGLB_COMMON_TRACE_CHECK_H_
#define FGLB_COMMON_TRACE_CHECK_H_

#include <string>
#include <vector>

#include "common/json.h"

namespace fglb {

// Shared validation/rendering over JSONL decision traces: fglb_tracecat
// implements --check and --phase=action with these, and the trace
// tests call them in-process on TraceLog's buffered lines, so tool and
// tests cannot drift apart.

// Validates every line against the TraceLog schema: well-formed JSON
// object, "v" == 1, "seq" an integer gapless from 0, non-empty "phase".
// Fields the schema no longer writes (the wall-clock "mono_us" and
// "dur_us" of older traces) are ignored. Per-replica recovery events
// must carry integer "replica", "report_seq" and "stale_intervals"
// that stay continuous. Empty lines are skipped. On failure returns
// false with a one-line "line N: ..." message in *error.
bool CheckTraceLines(const std::vector<std::string>& lines,
                     std::string* error);

// Renders one parsed "action" event exactly as the simulator's action
// log does ("t=... [kind] desc\n"); empty for the kind:"none"
// placeholder events.
std::string FormatActionEventLine(const JsonValue& event);

}  // namespace fglb

#endif  // FGLB_COMMON_TRACE_CHECK_H_
