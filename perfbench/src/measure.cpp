#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile rank must be in (0, 1]");
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double reference_loop_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x243f6a8885a308d3ull;
  for (int i = 0; i < (1 << 24); ++i) x = meshsearch::util::mix64(x + i);
  const auto t1 = Clock::now();
  // Keep the loop observable so it cannot be folded away.
  if (x == 0) std::fputs("", stderr);
  return 1e3 * seconds_between(t0, t1);
}

void MetricSet::add(const std::string& name, double value,
                    const std::string& unit) {
  for (const auto& m : items_)
    if (m.name == name) throw std::logic_error("duplicate metric " + name);
  items_.push_back({name, value, unit});
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& m : metrics.items()) {
    if (!std::isfinite(m.value))
      throw std::logic_error("non-finite metric " + m.name);
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
