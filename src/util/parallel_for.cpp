#include "util/parallel_for.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "util/check.hpp"

namespace meshsearch::util {

namespace {

// Participant flag for the reentrancy rule: set while a thread (pool worker
// or the calling thread acting as participant 0) executes chunk bodies.
// A nested parallel_for issued from such a thread must not touch the pool's
// job_/remaining_ state — the outer job is still live — so it runs serially.
thread_local bool tl_in_region = false;

struct RegionGuard {
  RegionGuard() { tl_in_region = true; }
  ~RegionGuard() { tl_in_region = false; }
};

}  // namespace

unsigned parse_thread_count(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (end == text || *end != '\0' || v == 0 || v > 4096) return 0;
  return static_cast<unsigned>(v);
}

unsigned default_thread_count() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const char* env = std::getenv("MESHSEARCH_THREADS");
  if (env == nullptr || *env == '\0') return hw;
  const unsigned v = parse_thread_count(env);
  if (v == 0) {
    // Warn once: a typo'd knob ("8x", "0") used to silently fall back to
    // hardware concurrency, which reads exactly like the knob working.
    static std::once_flag warned;
    std::call_once(warned, [env, hw] {
      std::cerr << "warning: ignoring invalid MESHSEARCH_THREADS=\"" << env
                << "\" (want an integer in [1, 4096]); using hardware "
                   "concurrency ("
                << hw << ")\n";
    });
    return hw;
  }
  return v;
}

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads ? threads : std::max(1u, std::thread::hardware_concurrency());
  // n total participants: n-1 pool workers + the calling thread.
  errors_.resize(n);
  workers_.reserve(n - 1);
  for (unsigned id = 1; id < n; ++id)
    workers_.emplace_back([this, id] { worker_loop(id); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_parallel_region() { return tl_in_region; }

void ThreadPool::run_chunks(const Job& job, unsigned id, unsigned nparticipants) {
  // Static assignment: participant `id` owns chunks id, id+P, id+2P, ...
  const RegionGuard in_region;
  for (std::size_t c = id; c < job.nchunks; c += nparticipants) {
    const std::size_t lo = job.begin + c * job.chunk;
    const std::size_t hi = std::min(job.end, lo + job.chunk);
    try {
      (*job.body)(lo, hi);
    } catch (...) {
      // Record the FIRST throwing chunk this participant hit, then abandon
      // its remaining chunks. parallel_for_chunks rethrows the error with
      // the globally lowest chunk index: each participant's chunks run in
      // ascending order, so the owner of the globally earliest throwing
      // chunk always reaches and records it — which makes the propagated
      // exception the one thrown at the smallest failing index, invariant
      // across thread counts and scheduling.
      errors_[id] = std::current_exception();
      error_chunks_[id] = c;
      break;
    }
  }
}

void ThreadPool::worker_loop(unsigned id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    run_chunks(job, id, thread_count());
    {
      std::lock_guard lock(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_chunks(std::size_t begin, std::size_t end,
                                     const ChunkBody& body, std::size_t grain) {
  if (begin >= end) return;
  if (tl_in_region) {
    // Nested call from inside a running body (this pool's or another's):
    // the outer job owns the pool state, so run serially right here.
    // Exceptions propagate to the outer run_chunks, which records them.
    body(begin, end);
    return;
  }
  const std::size_t count = end - begin;
  const unsigned p = thread_count();
  if (p == 1 || count <= std::max<std::size_t>(grain, 1)) {
    body(begin, end);
    return;
  }
  const std::size_t chunk = std::max<std::size_t>(
      std::max<std::size_t>(grain, 1), (count + 4 * p - 1) / (4 * p));
  Job job;
  job.begin = begin;
  job.end = end;
  job.chunk = chunk;
  job.nchunks = (count + chunk - 1) / chunk;
  job.body = &body;
  {
    std::lock_guard lock(mu_);
    for (auto& e : errors_) e = nullptr;
    error_chunks_.assign(errors_.size(), 0);
    job_ = job;
    remaining_ = static_cast<unsigned>(workers_.size());
    ++epoch_;
  }
  cv_start_.notify_all();
  run_chunks(job, 0, p);  // the calling thread participates as id 0
  {
    std::unique_lock lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
  }
  // Deterministic propagation: rethrow the error from the lowest chunk
  // index, not from the lowest participant id (which chunk a participant
  // owns depends on the thread count).
  std::size_t winner = errors_.size();
  for (std::size_t i = 0; i < errors_.size(); ++i)
    if (errors_[i] &&
        (winner == errors_.size() || error_chunks_[i] < error_chunks_[winner]))
      winner = i;
  if (winner != errors_.size()) std::rethrow_exception(errors_[winner]);
}

namespace {

std::mutex& global_pool_mutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& global_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(default_thread_count());
  return *slot;
}

void ThreadPool::set_global_threads(unsigned threads) {
  MS_CHECK_MSG(!tl_in_region,
               "set_global_threads from inside a parallel region");
  std::lock_guard lock(global_pool_mutex());
  auto& slot = global_pool_slot();
  slot.reset();  // join the old workers before building the replacement
  slot = std::make_unique<ThreadPool>(threads ? threads
                                              : default_thread_count());
}

}  // namespace meshsearch::util
