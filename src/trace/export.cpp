#include "trace/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <ostream>
#include <sstream>

namespace meshsearch::trace {

namespace {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// JSON has no NaN/Inf literals; clamp to null-safe numbers.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(15);
  os << v;
  return os.str();
}

}  // namespace

void write_trace_json(const TraceRecorder& rec, std::ostream& os) {
  const auto spans = rec.spans();
  const auto events = rec.events();
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"engine\":\""
     << escape(rec.engine()) << "\",\"total_steps\":" << num(rec.total_steps())
     << ",\"time_unit\":\"1 us = 1 simulated mesh step\"";
  // Named metrics (stream.*, fault.*) and wall-clock histogram summaries
  // ride in otherData so both JSON formats carry them, not just the flat
  // metrics export. Both read from the recorder's StatsRegistry — one
  // source.
  const auto stats_snap = rec.stats().snapshot();
  os << ",\"metrics\":{";
  bool first_metric = true;
  for (const auto& g : stats_snap.gauges) {
    if (!first_metric) os << ",";
    first_metric = false;
    os << "\"" << escape(g.name) << "\":" << num(g.value);
  }
  os << "},\"wall\":{";
  bool first_hist = true;
  for (const auto& h : stats_snap.histograms) {
    if (h.hist.empty()) continue;
    if (!first_hist) os << ",";
    first_hist = false;
    os << "\"" << escape(h.name) << "\":{\"count\":" << h.hist.count()
       << ",\"p50_us\":" << num(h.hist.p50())
       << ",\"p95_us\":" << num(h.hist.p95())
       << ",\"p99_us\":" << num(h.hist.p99())
       << ",\"max_us\":" << num(h.hist.max()) << "}";
  }
  os << "}},\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };
  sep();
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"meshsearch ("
     << escape(rec.engine()) << " engine)\"}}";
  sep();
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"phases\"}}";
  sep();
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"primitives\"}}";
  for (const auto& s : spans) {
    sep();
    os << "{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"" << escape(s.name)
       << "\",\"ts\":" << num(s.sim_begin)
       << ",\"dur\":" << num(s.sim_end - s.sim_begin)
       << ",\"args\":{\"sim_steps\":" << num(s.sim_end - s.sim_begin)
       << ",\"wall_us\":" << num(s.wall_end_us - s.wall_begin_us)
       << ",\"depth\":" << s.depth << (s.closed ? "" : ",\"open\":true")
       << "}}";
  }
  for (const auto& e : events) {
    sep();
    os << "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"name\":\""
       << primitive_name(e.prim) << " p=" << num(e.p)
       << "\",\"ts\":" << num(e.sim_begin) << ",\"dur\":" << num(e.steps)
       << ",\"args\":{\"p\":" << num(e.p) << ",\"steps\":" << num(e.steps)
       << ",\"calls\":" << e.calls << "}}";
  }
  os << "]}";
}

void write_metrics_json(const TraceRecorder& rec, std::ostream& os) {
  const double total = rec.total_steps();
  os << "{\"engine\":\"" << escape(rec.engine())
     << "\",\"total_steps\":" << num(total) << ",\"primitives\":[";
  bool first = true;
  for (const auto& [key, stat] : rec.counters()) {
    if (!first) os << ",";
    first = false;
    os << "{\"primitive\":\"" << primitive_name(key.prim)
       << "\",\"p\":" << num(key.p) << ",\"calls\":" << stat.calls
       << ",\"steps\":" << num(stat.steps)
       << ",\"share\":" << num(total > 0 ? stat.steps / total : 0) << "}";
  }
  os << "],\"spans\":[";
  first = true;
  for (const auto& s : rec.spans()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << escape(s.name) << "\",\"depth\":" << s.depth
       << ",\"sim_begin\":" << num(s.sim_begin)
       << ",\"sim_steps\":" << num(s.sim_end - s.sim_begin)
       << ",\"wall_us\":" << num(s.wall_end_us - s.wall_begin_us) << "}";
  }
  const auto stats_snap = rec.stats().snapshot();
  os << "],\"metrics\":[";
  first = true;
  for (const auto& g : stats_snap.gauges) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << escape(g.name) << "\",\"value\":" << num(g.value)
       << "}";
  }
  // Wall-clock histograms (observability only — never part of the
  // determinism contract): merged percentiles per histogram name.
  os << "],\"wall_histograms\":[";
  first = true;
  for (const auto& h : stats_snap.histograms) {
    if (h.hist.empty()) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << escape(h.name) << "\",\"count\":" << h.hist.count()
       << ",\"sum_us\":" << num(h.hist.sum())
       << ",\"mean_us\":" << num(h.hist.mean())
       << ",\"min_us\":" << num(h.hist.min())
       << ",\"p50_us\":" << num(h.hist.p50())
       << ",\"p90_us\":" << num(h.hist.p90())
       << ",\"p95_us\":" << num(h.hist.p95())
       << ",\"p99_us\":" << num(h.hist.p99())
       << ",\"max_us\":" << num(h.hist.max()) << "}";
  }
  os << "]}";
}

namespace {

bool write_file(const TraceRecorder& rec, const std::string& path,
                void (*writer)(const TraceRecorder&, std::ostream&)) {
  std::ofstream f(path);
  if (!f.good()) {
    std::cerr << "warning: cannot open trace output " << path << "\n";
    return false;
  }
  writer(rec, f);
  f.flush();
  if (!f.good()) {
    std::cerr << "warning: short write to trace output " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace

bool write_trace_json_file(const TraceRecorder& rec, const std::string& path) {
  return write_file(rec, path, &write_trace_json);
}

bool write_metrics_json_file(const TraceRecorder& rec,
                             const std::string& path) {
  return write_file(rec, path, &write_metrics_json);
}

util::Table metrics_table(const TraceRecorder& rec) {
  util::Table t({"primitive", "p", "calls", "steps", "share"});
  const double total = rec.total_steps();
  for (const auto& [key, stat] : rec.counters())
    t.add_row({std::string(primitive_name(key.prim)), key.p,
               static_cast<std::int64_t>(stat.calls), stat.steps,
               total > 0 ? stat.steps / total : 0.0});
  // Named metrics and wall-clock percentiles ride below
  // the histogram: the value lands in the "steps" column (it is the row's
  // only number; fractions like metric:stream.setup_fraction read naturally
  // next to the share column). One source: the recorder's StatsRegistry.
  const auto snap = rec.stats().snapshot();
  for (const auto& g : snap.gauges)
    t.add_row({"metric:" + g.name, std::string(), std::string(), g.value,
               std::string()});
  for (const auto& h : snap.histograms) {
    if (h.hist.empty()) continue;
    t.add_row({"wall:" + h.name + ".p50_us", std::string(),
               static_cast<std::int64_t>(h.hist.count()), h.hist.p50(),
               std::string()});
    t.add_row({"wall:" + h.name + ".p95_us", std::string(), std::string(),
               h.hist.p95(), std::string()});
    t.add_row({"wall:" + h.name + ".p99_us", std::string(), std::string(),
               h.hist.p99(), std::string()});
    t.add_row({"wall:" + h.name + ".max_us", std::string(), std::string(),
               h.hist.max(), std::string()});
  }
  return t;
}

}  // namespace meshsearch::trace
