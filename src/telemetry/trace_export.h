// Exporters for Tracer spans.
//
// chrome_trace_json() emits the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
// so any run can be opened in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing:
//   * "M" metadata events name the processes (pid = simulator node);
//   * overlapping span kinds — TCP segment lifetimes and queue residencies,
//     which interleave arbitrarily on one lane — become async "b"/"e" pairs
//     keyed by span id;
//   * link serialization spans become "X" complete events;
//   * every event carries the causal ids (trace/span/parent), the byte count,
//     the status, and the accumulated component annotations in "args", so the
//     FLoc admission verdict is one click away in the UI.
// Timestamps are simulated seconds scaled to the format's microseconds.
//
// spans_csv() is the compact flat dump of the same data for ad-hoc grepping
// and spreadsheet analysis: one row per closed span.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/tracing.h"

namespace floc::telemetry {

struct TraceExportOptions {
  // pid -> human-readable process name, emitted as "M" metadata events.
  std::vector<std::pair<std::int32_t, std::string>> process_names;
};

std::string chrome_trace_json(const Tracer& tracer,
                              const TraceExportOptions& opts = {});
bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const TraceExportOptions& opts = {},
                        std::string* err = nullptr);

// Header: trace,span,parent,kind,pid,tid,begin,end,seq,bytes,status,annot
std::string spans_csv(const Tracer& tracer);

}  // namespace floc::telemetry
