// Shared helpers for the experiment harness. Every bench binary prints
// paper-style series as aligned tables (and mirrors them to CSV under
// bench_out/ when writable), then a log-log power fit of the measured
// simulated mesh time against the problem size, so EXPERIMENTS.md can quote
// "claimed exponent vs measured exponent" directly.
//
// Observability: pass `--trace <prefix>` (or `--trace=<prefix>`) to any bench
// binary to dump one Chrome/Perfetto trace-event JSON plus one flat metrics
// JSON per sweep point, named `<prefix>.<point>.trace.json` and
// `<prefix>.<point>.metrics.json`, and to print the per-primitive cost
// attribution table to stdout. Load the trace JSON at https://ui.perfetto.dev.
// Machine-readable reports: construct one `bench::BenchReport` at the top of
// main and every `bench::emit()` table is additionally captured as a series
// in `bench_out/BENCH_<exp>.json` (schema "meshsearch.bench.v1": git sha,
// thread count, argv, config, charged series, wall-clock histograms). The
// bench_check tool compares these against committed baselines under
// bench/baselines/ — charged values gate exactly, wall-clock by tolerance.
#pragma once

#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <cstdlib>

#include "mesh/cost.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/benchcmp.hpp"
#include "util/json.hpp"
#include "util/parallel_for.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace meshsearch::bench {

inline void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Make a string safe as a file name: every char outside [A-Za-z0-9._-]
/// becomes '_', runs collapse to one '_', and trailing '_' are stripped.
/// "e2_zipf(1.1)" -> "e2_zipf_1.1".
inline std::string sanitize_csv_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '.' || c == '_' || c == '-';
    if (ok) {
      out.push_back(c);
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty()) out = "unnamed";
  return out;
}

/// Registry of CSV names already emitted by this process. Sanitization is
/// lossy — distinct sweep points can collide (e.g. "zipf(1.1)" and
/// "zipf_1.1" both sanitize to "zipf_1.1") and the later one used to
/// silently overwrite the earlier file. Keyed by the RAW name so a re-emit
/// of the same point still refreshes its own file; a different raw name
/// whose sanitized form is taken gets a "_2", "_3", ... suffix.
struct CsvNameRegistry {
  std::map<std::string, std::string> by_raw;  ///< raw name -> chosen file stem
  std::set<std::string> taken;                ///< file stems already claimed
};

/// Resolve `raw` (sanitizing to `sanitized`) against `reg`: returns the
/// stem this raw name should write, registering it on first use. Pure
/// bookkeeping — callers decide how to surface a collision.
inline std::string disambiguate_csv_name(const std::string& raw,
                                         const std::string& sanitized,
                                         CsvNameRegistry& reg) {
  const auto it = reg.by_raw.find(raw);
  if (it != reg.by_raw.end()) return it->second;
  std::string chosen = sanitized;
  for (int n = 2; reg.taken.count(chosen) != 0; ++n)
    chosen = sanitized + "_" + std::to_string(n);
  reg.by_raw.emplace(raw, chosen);
  reg.taken.insert(chosen);
  return chosen;
}

/// Bare-flag lookup: `has_flag(argc, argv, "--smoke")`.
inline bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i)
    if (flag == argv[i]) return true;
  return false;
}

/// Commit id recorded in BENCH_*.json: MESHSEARCH_GIT_SHA when set (CI
/// exports it), else `git rev-parse HEAD`, else "unknown".
inline std::string bench_git_sha() {
  if (const char* env = std::getenv("MESHSEARCH_GIT_SHA");
      env != nullptr && env[0] != '\0')
    return env;
  std::string sha;
  if (FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

/// Machine-readable run report. Construct one per bench binary (first thing
/// in main); it registers itself so emit() mirrors every table into the
/// report, and the destructor writes `bench_out/BENCH_<exp>.json`.
class BenchReport {
 public:
  BenchReport(std::string exp, int argc, char** argv)
      : exp_(std::move(exp)), born_(std::chrono::steady_clock::now()) {
    for (int i = 0; i < argc; ++i) argv_.emplace_back(argv[i]);
    active() = this;
  }
  ~BenchReport() {
    if (write_on_exit) {
      try {
        write();
      } catch (const std::exception& e) {
        std::cerr << "warning: bench report write failed: " << e.what()
                  << "\n";
      }
    }
    if (active() == this) active() = nullptr;
  }

  /// Tests construct reports without wanting a file on disk.
  bool write_on_exit = true;
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  /// The report emit() mirrors into, when one exists.
  static BenchReport*& active() {
    static BenchReport* current = nullptr;
    return current;
  }

  void set_config(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
  }

  /// Capture a table as a charged series. Repeated names get a "_2", "_3"
  /// suffix so the comparison keys stay unique.
  void add_table(const std::string& name, const util::Table& t) {
    std::string unique = name;
    for (int n = 2; series_names_.count(unique) != 0; ++n)
      unique = name + "_" + std::to_string(n);
    series_names_.insert(unique);
    series_.emplace_back(std::move(unique), t);
  }

  void observe_wall(const std::string& name, double us) {
    auto it = wall_index_.find(name);
    if (it == wall_index_.end()) {
      it = wall_index_.emplace(name, wall_.size()).first;
      wall_.emplace_back(name, util::LogHistogram{});
    }
    wall_[it->second].second.observe(us);
  }

  /// Copy every wall-clock histogram a recorder accumulated (one per span
  /// name, the per-batch stream.batch / service.batch spans among them) into
  /// the report, merging repeats by name.
  void add_wall_from(const trace::TraceRecorder& rec) {
    for (const auto& h : rec.stats().snapshot().histograms) {
      auto it = wall_index_.find(h.name);
      if (it == wall_index_.end()) {
        it = wall_index_.emplace(h.name, wall_.size()).first;
        wall_.emplace_back(h.name, util::LogHistogram{});
      }
      wall_[it->second].second.merge(h.hist);
    }
  }

  /// Scoped wall timer feeding observe_wall on destruction.
  class WallTimer {
   public:
    WallTimer(BenchReport* report, std::string name)
        : report_(report),
          name_(std::move(name)),
          start_(std::chrono::steady_clock::now()) {}
    WallTimer(WallTimer&& other) noexcept
        : report_(other.report_),
          name_(std::move(other.name_)),
          start_(other.start_) {
      other.report_ = nullptr;
    }
    WallTimer(const WallTimer&) = delete;
    WallTimer& operator=(const WallTimer&) = delete;
    WallTimer& operator=(WallTimer&&) = delete;
    ~WallTimer() {
      if (report_ == nullptr) return;
      const auto us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      report_->observe_wall(name_, us);
    }

   private:
    BenchReport* report_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
  };

  WallTimer time(std::string name) { return WallTimer(this, std::move(name)); }

  std::string path() const { return "bench_out/BENCH_" + exp_ + ".json"; }

  /// Serialize and write the report (pretty-printed; called by the
  /// destructor, safe to call earlier for a partial flush).
  void write() {
    observe_wall("bench.total",
                 std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - born_)
                     .count());
    std::error_code ec;
    std::filesystem::create_directories("bench_out", ec);
    if (ec) {
      std::cerr << "warning: cannot create bench_out/ (" << ec.message()
                << "); skipping " << path() << "\n";
      return;
    }
    std::ofstream out(path());
    if (!out.good()) {
      std::cerr << "warning: cannot open " << path() << " for writing\n";
      return;
    }
    out << to_json().dump(2) << "\n";
    std::cout << "bench report: " << path() << "\n";
  }

  util::JsonValue to_json() const {
    using util::JsonValue;
    std::vector<std::pair<std::string, JsonValue>> doc;
    doc.emplace_back("schema",
                     JsonValue::make_string(std::string(util::kBenchSchemaV1)));
    doc.emplace_back("exp", JsonValue::make_string(exp_));
    doc.emplace_back("git_sha", JsonValue::make_string(bench_git_sha()));
    doc.emplace_back("threads", JsonValue::make_number(static_cast<double>(
                                    util::default_thread_count())));
    std::vector<JsonValue> argv_json;
    for (const std::string& a : argv_)
      argv_json.push_back(JsonValue::make_string(a));
    doc.emplace_back("argv", JsonValue::make_array(std::move(argv_json)));
    std::vector<std::pair<std::string, JsonValue>> cfg;
    for (const auto& [k, v] : config_)
      cfg.emplace_back(k, JsonValue::make_string(v));
    doc.emplace_back("config", JsonValue::make_object(std::move(cfg)));
    std::vector<JsonValue> series;
    for (const auto& [name, table] : series_)
      series.push_back(series_json(name, table));
    doc.emplace_back("series", JsonValue::make_array(std::move(series)));
    std::vector<JsonValue> wall;
    for (const auto& [name, hist] : wall_) wall.push_back(wall_json(name, hist));
    doc.emplace_back("wall", JsonValue::make_array(std::move(wall)));
    return JsonValue::make_object(std::move(doc));
  }

 private:
  static util::JsonValue cell_json(const util::Table::Cell& c) {
    using util::JsonValue;
    if (const auto* s = std::get_if<std::string>(&c))
      return JsonValue::make_string(*s);
    if (const auto* d = std::get_if<double>(&c))
      return JsonValue::make_number(*d);
    return JsonValue::make_number(
        static_cast<double>(std::get<std::int64_t>(c)));
  }

  static util::JsonValue series_json(const std::string& name,
                                     const util::Table& t) {
    using util::JsonValue;
    std::vector<JsonValue> cols;
    for (const std::string& h : t.headers())
      cols.push_back(JsonValue::make_string(h));
    std::vector<JsonValue> rows;
    for (const auto& row : t.row_data()) {
      std::vector<JsonValue> cells;
      for (const auto& c : row) cells.push_back(cell_json(c));
      rows.push_back(JsonValue::make_array(std::move(cells)));
    }
    return JsonValue::make_object(
        {{"name", JsonValue::make_string(name)},
         {"columns", JsonValue::make_array(std::move(cols))},
         {"rows", JsonValue::make_array(std::move(rows))}});
  }

  static util::JsonValue wall_json(const std::string& name,
                                   const util::LogHistogram& h) {
    using util::JsonValue;
    return JsonValue::make_object(
        {{"name", JsonValue::make_string(name)},
         {"count", JsonValue::make_number(static_cast<double>(h.count()))},
         {"sum_us", JsonValue::make_number(h.sum())},
         {"min_us", JsonValue::make_number(h.empty() ? 0 : h.min())},
         {"max_us", JsonValue::make_number(h.empty() ? 0 : h.max())},
         {"mean_us", JsonValue::make_number(h.mean())},
         {"p50_us", JsonValue::make_number(h.p50())},
         {"p90_us", JsonValue::make_number(h.p90())},
         {"p95_us", JsonValue::make_number(h.p95())},
         {"p99_us", JsonValue::make_number(h.p99())}});
  }

  std::string exp_;
  std::vector<std::string> argv_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, util::Table>> series_;
  std::set<std::string> series_names_;
  std::vector<std::pair<std::string, util::LogHistogram>> wall_;
  std::map<std::string, std::size_t> wall_index_;
  std::chrono::steady_clock::time_point born_;
};

/// Wall timer charging the active report (no-op when no report exists), so
/// sweep loops can time points without threading the report through.
inline BenchReport::WallTimer time_point(std::string name) {
  return BenchReport::WallTimer(BenchReport::active(), std::move(name));
}

inline void emit(const util::Table& t, const std::string& csv_name) {
  if (BenchReport* report = BenchReport::active())
    report->add_table(csv_name, t);
  t.print(std::cout);
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  if (ec) {
    std::cerr << "warning: cannot create bench_out/ (" << ec.message()
              << "); skipping CSV mirror for " << csv_name << "\n";
    return;
  }
  static CsvNameRegistry registry;
  const std::string sanitized = sanitize_csv_name(csv_name);
  const std::string unique =
      disambiguate_csv_name(csv_name, sanitized, registry);
  if (unique != sanitized)
    std::cerr << "warning: CSV name collision: \"" << csv_name
              << "\" sanitizes to already-emitted \"" << sanitized
              << "\"; writing bench_out/" << unique << ".csv instead\n";
  const std::string path = "bench_out/" + unique + ".csv";
  try {
    t.write_csv_file(path);
  } catch (const std::exception& e) {
    std::cerr << "warning: CSV write failed for " << path << ": " << e.what()
              << "\n";
  }
}

inline void report_fit(const std::string& label,
                       const std::vector<double>& xs,
                       const std::vector<double>& ys,
                       double claimed_exponent) {
  const auto fit = util::fit_power(xs, ys);
  std::cout << label << ": measured exponent " << fit.exponent
            << " (claimed " << claimed_exponent << ", r2 " << fit.r2 << ")\n";
}

/// Standard problem-size sweep: mesh sizes 2^lo .. 2^hi.
inline std::vector<std::size_t> pow2_sweep(unsigned lo, unsigned hi) {
  std::vector<std::size_t> out;
  for (unsigned e = lo; e <= hi; ++e) out.push_back(std::size_t{1} << e);
  return out;
}

// ---------------------------------------------------------------------------
// Trace wiring.

struct TraceOptions {
  bool enabled = false;
  std::string prefix = "bench_out/trace";
};

/// Parse `--trace <prefix>` / `--trace=<prefix>` / bare `--trace`.
/// Unknown arguments are ignored so benches stay forward-compatible.
inline TraceOptions parse_trace_flag(int argc, char** argv) {
  TraceOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") {
      opt.enabled = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') opt.prefix = argv[++i];
    } else if (a.rfind("--trace=", 0) == 0) {
      opt.enabled = true;
      if (a.size() > 8) opt.prefix = a.substr(8);
    }
  }
  return opt;
}

/// One sweep point's TraceRecorder + CostModel, wired together only when
/// tracing is enabled (a null sink costs one pointer test per primitive).
/// Replaces the per-bench three-line recorder/model/wire boilerplate.
struct TracedModel {
  trace::TraceRecorder rec;
  mesh::CostModel model;

  explicit TracedModel(const TraceOptions& opt, std::string engine = "counting")
      : rec(std::move(engine)) {
    if (opt.enabled) model.trace = &rec;
  }
};

/// Write `<prefix>.<point>.trace.json` + `<prefix>.<point>.metrics.json` for
/// one sweep point and print the per-primitive attribution table. No-op when
/// tracing is disabled.
inline void emit_trace(const trace::TraceRecorder& rec, const TraceOptions& opt,
                       const std::string& point) {
  if (!opt.enabled) return;
  const std::string stem = opt.prefix + "." + sanitize_csv_name(point);
  std::error_code ec;
  const auto dir = std::filesystem::path(stem).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  trace::write_trace_json_file(rec, stem + ".trace.json");
  trace::write_metrics_json_file(rec, stem + ".metrics.json");
  std::cout << "\n-- cost attribution: " << point << " (" << rec.engine()
            << " engine, total " << rec.total_steps() << " steps) --\n";
  trace::metrics_table(rec).print(std::cout);
  std::cout << "trace: " << stem << ".trace.json\n";
}

}  // namespace meshsearch::bench
