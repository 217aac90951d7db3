// Shared entry-point wrapper for the examples.
//
// Every example defines `int run(int argc, char** argv)` and closes with
// MESHSEARCH_EXAMPLE_MAIN(run). The wrapper catches the typed error
// taxonomy (util/error.hpp) at the top level and prints the structured
// context — which class of failure, which engine/phase/site, and for
// fault-driven errors the seed and occurrence needed to replay it — then
// exits 1. Demonstrates the intended error-handling contract: user code
// catches meshsearch::Error (or a subclass), not raw std::logic_error.
//
// With MESHSEARCH_STATS=1 the wrapper additionally prints a one-screen
// summary of the process-wide stats registry on exit (wall-clock span
// histograms and — when the example ran a stream — the SLO line built from
// the stream.* gauges). Every TraceRecorder mirrors its span histograms and
// metrics into that registry, so the summary needs no wiring inside the
// example.
#pragma once

#include <cstdio>
#include <exception>
#include <iostream>

#include "trace/stats.hpp"
#include "util/error.hpp"

namespace meshsearch::examples {

inline const char* error_kind(const meshsearch::Error& e) {
  if (dynamic_cast<const meshsearch::InvalidInputError*>(&e) != nullptr)
    return "invalid input";
  if (dynamic_cast<const meshsearch::CapacityError*>(&e) != nullptr)
    return "capacity exceeded";
  if (dynamic_cast<const meshsearch::IntegrityError*>(&e) != nullptr)
    return "integrity violation";
  if (dynamic_cast<const meshsearch::CheckFailedError*>(&e) != nullptr)
    return "internal invariant failure";
  return "error";
}

/// One-screen dump of the global stats registry (MESHSEARCH_STATS=1): every
/// wall-clock histogram as a percentile line, and the stream SLO summary
/// when stream gauges were recorded.
inline void print_stats_summary(std::ostream& os) {
  auto& reg = meshsearch::stats::StatsRegistry::global();
  if (!reg.enabled()) return;
  const auto snap = reg.snapshot();
  os << "\n== stats (MESHSEARCH_STATS=1) ==\n";
  if (snap.gauges.empty() && snap.histograms.empty()) {
    os << "(no instruments recorded — wire a TraceRecorder into the cost "
          "model)\n";
    return;
  }
  for (const auto& h : snap.histograms) {
    if (h.hist.empty()) continue;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  wall     %s: n=%zu p50=%.1fus p95=%.1fus max=%.1fus",
                  h.name.c_str(), static_cast<std::size_t>(h.hist.count()),
                  h.hist.p50(), h.hist.p95(), h.hist.max());
    os << line << "\n";
  }
  // The stream SLO line, assembled from the deterministic gauges the stream
  // scheduler records (the latency percentiles are in the histograms above).
  double degraded = -1, replans = -1, failed = -1, batches = -1;
  for (const auto& g : snap.gauges) {
    if (g.name == "stream.degraded_batches") degraded = g.value;
    else if (g.name == "stream.replans") replans = g.value;
    else if (g.name == "stream.failed_queries") failed = g.value;
    else if (g.name == "stream.batches") batches = g.value;
  }
  if (batches >= 0)
    os << "  slo      stream: " << batches << " batches, " << degraded
       << " degraded, " << replans << " replans, " << failed
       << " failed queries\n";
}

inline int guarded_main(int (*run)(int, char**), int argc, char** argv) {
  struct SummaryOnExit {
    ~SummaryOnExit() { print_stats_summary(std::cerr); }
  } summary;
  try {
    return run(argc, argv);
  } catch (const meshsearch::Error& e) {
    const auto& ctx = e.context();
    std::cerr << "error (" << error_kind(e) << "): " << e.message() << "\n";
    if (!ctx.engine.empty()) std::cerr << "  engine:     " << ctx.engine << "\n";
    if (!ctx.phase.empty()) std::cerr << "  phase:      " << ctx.phase << "\n";
    if (!ctx.site.empty()) std::cerr << "  site:       " << ctx.site << "\n";
    if (ctx.band >= 0) std::cerr << "  band:       " << ctx.band << "\n";
    if (ctx.has_seed)
      std::cerr << "  replay:     seed=" << ctx.seed
                << " occurrence=" << ctx.occurrence << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace meshsearch::examples

#define MESHSEARCH_EXAMPLE_MAIN(run_fn)                                   \
  int main(int argc, char** argv) {                                       \
    return ::meshsearch::examples::guarded_main(run_fn, argc, argv);      \
  }
