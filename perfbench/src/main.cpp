// perfbench: host-time benchmark of meshsearch.
//
//   perfbench --workload <hier_bulk|service_rw>
//             --seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>]
//
// Prints human-readable lines (host metadata, percentile sample counts, and
// in a traced run the wall-time decomposition), then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when an
// answer disagrees with the sequential oracle or a charged value differs
// between passes, 2 on bad arguments or a refused environment.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>]\n";
  return 2;
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string git_sha = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string val = argv[++i];
      if (arg == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
        opt.trace = val == "1";
      } else if (arg == "--git-sha") {
        git_sha = val;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed numeric argument");
  }
  if (!have_workload) return usage("--workload is required");
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  // These switch on extra work inside the library (stats mirroring, shadow
  // oracle runs); a measurement under them is not comparable to one without.
  for (const char* var : {"MESHSEARCH_STATS", "MESHSEARCH_PARANOID"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') {
      std::cerr << "perfbench: refusing to run with " << var << "=" << v
                << " set\n";
      return 2;
    }
  }

  try {
    const double ref_before = perfbench::reference_loop_ms();
    perfbench::RunResult r = perfbench::run_workload(opt);
    const double ref_after = perfbench::reference_loop_ms();
    std::printf(
        "# host {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"git_sha\": \"%s\", \"pool_threads\": %u, \"MESHSEARCH_THREADS\": "
        "\"%s\", \"reference_loop_ms_before\": %.4f, "
        "\"reference_loop_ms_after\": %.4f}\n",
        std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
        git_sha.c_str(), r.pool_threads,
        env_or("MESHSEARCH_THREADS", "").c_str(), ref_before, ref_after);
    for (const auto& line : r.notes) std::printf("# %s\n", line.c_str());
    std::printf("%s\n",
                perfbench::result_json(r.correct, r.attempted, r.failed,
                                       r.metrics)
                    .c_str());
    std::fflush(stdout);
    return r.correct ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
