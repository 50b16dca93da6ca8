#include "telemetry/trace_export.h"

#include <cinttypes>
#include <cstdio>

#include "telemetry/file_util.h"

namespace floc::telemetry {

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

// Shared "pid":..,"tid":..,"ts":.. suffix; ts is microseconds of sim time.
void append_lane(std::string& out, const Span& s, TimeSec t) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"pid\": %d, \"tid\": %" PRIu64 ", \"ts\": %.3f",
                s.pid, s.tid, t * 1e6);
  out += buf;
}

void append_args(std::string& out, const Span& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"args\": {\"trace\": %" PRIu64 ", \"span\": %" PRIu64
                ", \"parent\": %" PRIu64 ", \"seq\": %" PRIu64
                ", \"bytes\": %d, \"status\": %u, \"annot\": \"",
                s.trace, s.id, s.parent, s.seq, s.bytes, s.status);
  out += buf;
  append_json_escaped(out, s.annot);
  out += "\"}";
}

void append_event_prefix(std::string& out, const Span& s, char ph) {
  char buf[64];
  out += "{\"name\": \"";
  out += to_string(s.kind);
  out += "\", \"cat\": \"";
  out += to_string(s.kind);
  std::snprintf(buf, sizeof(buf), "\", \"ph\": \"%c\", ", ph);
  out += buf;
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer,
                              const TraceExportOptions& opts) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out += ",\n";
    first = false;
    out += "  ";
  };

  char buf[128];
  for (const auto& [pid, name] : opts.process_names) {
    sep();
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                  "\"args\": {\"name\": \"",
                  pid);
    out += buf;
    append_json_escaped(out, name);
    out += "\"}}";
  }

  for (const Span& s : tracer.spans()) {
    if (s.kind == SpanKind::kLinkTx) {
      // Serialization intervals render as complete slices.
      sep();
      append_event_prefix(out, s, 'X');
      append_lane(out, s, s.begin);
      std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f, ",
                    s.duration() * 1e6);
      out += buf;
      append_args(out, s);
      out += '}';
      continue;
    }
    // Everything else overlaps arbitrarily on its lane (many segments in
    // flight per flow, many packets resident per queue): async pairs keyed
    // by the span id keep them individually addressable.
    sep();
    append_event_prefix(out, s, 'b');
    std::snprintf(buf, sizeof(buf), "\"id\": \"0x%" PRIx64 "\", ", s.id);
    out += buf;
    append_lane(out, s, s.begin);
    out += ", ";
    append_args(out, s);
    out += '}';
    sep();
    append_event_prefix(out, s, 'e');
    std::snprintf(buf, sizeof(buf), "\"id\": \"0x%" PRIx64 "\", ", s.id);
    out += buf;
    append_lane(out, s, s.end);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const Tracer& tracer, const std::string& path,
                        const TraceExportOptions& opts, std::string* err) {
  return write_text_file(path, chrome_trace_json(tracer, opts), err);
}

std::string spans_csv(const Tracer& tracer) {
  std::string out = "trace,span,parent,kind,pid,tid,begin,end,seq,bytes,status,annot\n";
  char buf[192];
  for (const Span& s : tracer.spans()) {
    std::snprintf(buf, sizeof(buf),
                  "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%s,%d,%" PRIu64
                  ",%.9g,%.9g,%" PRIu64 ",%d,%u,",
                  s.trace, s.id, s.parent, to_string(s.kind), s.pid, s.tid,
                  s.begin, s.end, s.seq, s.bytes, s.status);
    out += buf;
    // Annotations are "key=value;..." — no commas/quotes by construction,
    // but guard anyway so a hostile annotation cannot corrupt the CSV.
    for (char c : s.annot) out += (c == ',' || c == '\n') ? ';' : c;
    out += '\n';
  }
  return out;
}

}  // namespace floc::telemetry
