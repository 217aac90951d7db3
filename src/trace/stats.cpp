#include "trace/stats.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/check.hpp"

namespace meshsearch::stats {

namespace {

std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> uid{1};
  return uid.fetch_add(1, std::memory_order_relaxed);
}

/// Tiny per-thread cache of (registry uid -> shard). Registries are keyed by
/// a process-unique uid, never by address, so a cache entry can never
/// resolve to a shard of a destroyed-and-reallocated registry. Bounded ring:
/// an evicted entry just costs one mutex hit on the next update.
struct TlsShardCache {
  static constexpr std::size_t kEntries = 8;
  std::array<std::uint64_t, kEntries> uid{};
  std::array<void*, kEntries> shard{};
  std::size_t next = 0;

  void* find(std::uint64_t u) const {
    for (std::size_t i = 0; i < kEntries; ++i)
      if (uid[i] == u) return shard[i];
    return nullptr;
  }
  void put(std::uint64_t u, void* s) {
    uid[next] = u;
    shard[next] = s;
    next = (next + 1) % kEntries;
  }
};

thread_local TlsShardCache tls_shards;

}  // namespace

/// One thread's slice of every histogram. Slots live in
/// lazily-published fixed-size blocks so registering new instruments never
/// moves existing slots (the owning thread allocates; snapshot readers load
/// block pointers with acquire).
struct StatsRegistry::Shard {
  struct HistSlot {
    std::array<std::atomic<std::uint64_t>, util::LogHistogram::kBucketCount>
        buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0};
    std::atomic<double> min{0};
    std::atomic<double> max{0};
  };
  struct HistBlock {
    std::array<HistSlot, kBlockSlots> v{};
  };

  std::array<std::atomic<HistBlock*>, kMaxBlocks> hist_blocks{};
  std::vector<std::unique_ptr<HistBlock>> hist_owner;
  std::mutex alloc_mu;  ///< serializes block publication (cold path)

  HistSlot* hist_slot(std::uint32_t id, bool create) {
    const std::size_t b = id / kBlockSlots;
    if (b >= kMaxBlocks) return nullptr;
    HistBlock* blk = hist_blocks[b].load(std::memory_order_acquire);
    if (blk == nullptr) {
      if (!create) return nullptr;
      const std::lock_guard<std::mutex> lock(alloc_mu);
      blk = hist_blocks[b].load(std::memory_order_acquire);
      if (blk == nullptr) {
        auto owned = std::make_unique<HistBlock>();
        blk = owned.get();
        hist_owner.push_back(std::move(owned));
        hist_blocks[b].store(blk, std::memory_order_release);
      }
    }
    return &blk->v[id % kBlockSlots];
  }
};

StatsRegistry::StatsRegistry(bool enabled)
    : enabled_(enabled), uid_(next_registry_uid()) {}

StatsRegistry::~StatsRegistry() = default;

std::uint32_t StatsRegistry::intern(std::vector<std::string>& names,
                                    NameMap& ids, std::string_view name) {
  // Callers hold mu_.
  const auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names.size());
  MS_CHECK_MSG(id < kBlockSlots * kMaxBlocks,
               "StatsRegistry instrument limit exceeded");
  names.emplace_back(name);
  ids.emplace(names.back(), id);
  return id;
}

StatsRegistry::Gauge StatsRegistry::gauge(std::string_view name) {
  if (!enabled()) return Gauge{};
  const std::lock_guard<std::mutex> lock(mu_);
  return Gauge{this, intern(gauge_names_, gauge_ids_, name)};
}

StatsRegistry::Histogram StatsRegistry::histogram(std::string_view name) {
  if (!enabled()) return Histogram{};
  const std::lock_guard<std::mutex> lock(mu_);
  return Histogram{this, intern(hist_names_, hist_ids_, name)};
}

StatsRegistry::Shard* StatsRegistry::shard_for_this_thread() {
  if (auto* cached = tls_shards.find(uid_))
    return static_cast<Shard*>(cached);
  const std::lock_guard<std::mutex> lock(mu_);
  // Re-check by thread id: a TLS-cache eviction must not mint a second
  // shard for the same thread (sums would still merge, but memory would
  // grow with every eviction).
  Shard*& s = shard_by_thread_[std::this_thread::get_id()];
  if (s == nullptr) {
    shards_.push_back(std::make_unique<Shard>());
    s = shards_.back().get();
  }
  tls_shards.put(uid_, s);
  return s;
}

std::atomic<double>* StatsRegistry::gauge_slot(std::uint32_t id, bool create) {
  const std::size_t b = id / kBlockSlots;
  if (b >= kMaxBlocks) return nullptr;
  GaugeBlock* blk = gauge_blocks_[b].load(std::memory_order_acquire);
  if (blk == nullptr) {
    if (!create) return nullptr;
    const std::lock_guard<std::mutex> lock(mu_);
    blk = gauge_blocks_[b].load(std::memory_order_acquire);
    if (blk == nullptr) {
      auto owned = std::make_unique<GaugeBlock>();
      blk = owned.get();
      gauge_block_owner_.push_back(std::move(owned));
      gauge_blocks_[b].store(blk, std::memory_order_release);
    }
  }
  return &blk->v[id % kBlockSlots];
}

void StatsRegistry::Gauge::set(double value) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  auto* slot = reg_->gauge_slot(id_, true);
  if (slot != nullptr) slot->store(value, std::memory_order_relaxed);
}

void StatsRegistry::Histogram::observe(double value) const {
  if (reg_ == nullptr || !reg_->enabled()) return;
  auto* slot = reg_->shard_for_this_thread()->hist_slot(id_, true);
  if (slot == nullptr) return;
  if (!(value >= 0)) value = 0;  // match LogHistogram's clamp
  slot->buckets[util::LogHistogram::bucket_index(value)].fetch_add(
      1, std::memory_order_relaxed);
  const std::uint64_t prev = slot->count.fetch_add(1, std::memory_order_relaxed);
  slot->sum.fetch_add(value, std::memory_order_relaxed);
  if (prev == 0) {
    // First observation on this shard seeds min/max; the shard is only
    // written by this thread, so plain stores suffice for correctness and
    // the atomics keep snapshot readers defined.
    slot->min.store(value, std::memory_order_relaxed);
    slot->max.store(value, std::memory_order_relaxed);
  } else {
    if (value < slot->min.load(std::memory_order_relaxed))
      slot->min.store(value, std::memory_order_relaxed);
    if (value > slot->max.load(std::memory_order_relaxed))
      slot->max.store(value, std::memory_order_relaxed);
  }
}

Snapshot StatsRegistry::snapshot() const {
  Snapshot out;
  std::vector<std::string> gnames, hnames;
  std::vector<Shard*> shards;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    gnames = gauge_names_;
    hnames = hist_names_;
    shards.reserve(shards_.size());
    for (const auto& s : shards_) shards.push_back(s.get());
  }
  out.gauges.reserve(gnames.size());
  for (std::uint32_t id = 0; id < gnames.size(); ++id) {
    GaugeSnapshot g;
    g.name = gnames[id];
    if (auto* slot = const_cast<StatsRegistry*>(this)->gauge_slot(id, false))
      g.value = slot->load(std::memory_order_relaxed);
    out.gauges.push_back(std::move(g));
  }
  out.histograms.reserve(hnames.size());
  for (std::uint32_t id = 0; id < hnames.size(); ++id) {
    HistogramSnapshot h;
    h.name = hnames[id];
    double sum = 0;
    double mn = 0, mx = 0;
    bool any = false;
    for (Shard* s : shards) {
      auto* slot = s->hist_slot(id, false);
      if (slot == nullptr) continue;
      if (slot->count.load(std::memory_order_relaxed) == 0) continue;
      for (std::size_t b = 0; b < util::LogHistogram::kBucketCount; ++b) {
        const auto n = slot->buckets[b].load(std::memory_order_relaxed);
        if (n != 0) h.hist.add_bucket(b, n);
      }
      sum += slot->sum.load(std::memory_order_relaxed);
      const double smin = slot->min.load(std::memory_order_relaxed);
      const double smax = slot->max.load(std::memory_order_relaxed);
      if (!any) {
        mn = smin;
        mx = smax;
        any = true;
      } else {
        mn = std::min(mn, smin);
        mx = std::max(mx, smax);
      }
    }
    if (any) h.hist.override_moments(sum, mn, mx);
    out.histograms.push_back(std::move(h));
  }
  return out;
}

std::size_t StatsRegistry::shard_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
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
