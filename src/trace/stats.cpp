#include "trace/stats.hpp"

#include <cstdlib>
#include <cstring>

namespace meshsearch::stats {

StatsRegistry::Slots& StatsRegistry::slots(std::string_view name) {
  // Callers hold mu_.
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  return ids_.emplace(std::string(name), Slots{}).first->second;
}

void StatsRegistry::set(std::string_view name, double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t& id = slots(name).gauge;
  if (id == Slots::kNone) {
    id = static_cast<std::uint32_t>(table_.gauges.size());
    table_.gauges.push_back(GaugeSnapshot{std::string(name), 0});
  }
  table_.gauges[id].value = value;
}

void StatsRegistry::observe(std::string_view name, double value) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t& id = slots(name).hist;
  if (id == Slots::kNone) {
    id = static_cast<std::uint32_t>(table_.histograms.size());
    table_.histograms.push_back(HistogramSnapshot{std::string(name), {}});
  }
  table_.histograms[id].hist.observe(value);
}

Snapshot StatsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return table_;
}

bool StatsRegistry::env_enabled() {
  const char* env = std::getenv("MESHSEARCH_STATS");
  if (env == nullptr) return false;
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "") != 0 &&
         std::strcmp(env, "off") != 0 && std::strcmp(env, "false") != 0;
}

StatsRegistry& StatsRegistry::global() {
  static StatsRegistry reg(env_enabled());
  return reg;
}

}  // namespace meshsearch::stats
