// Host-side data parallelism for the simulator.
//
// The mesh algorithms frequently say "independently and in parallel on each
// submesh"; the simulator exploits that real concurrency with a small
// persistent thread pool. Static chunking keeps the simulation bit-exact
// regardless of thread count: the partition of indices across workers never
// depends on timing, and workers never share mutable state.
//
// Determinism contract (DESIGN.md §5.6): a parallel_for body must be a pure
// function of its index over disjoint state — it may read shared immutable
// data and write only state owned by that index (or by a fixed chunk the
// caller partitioned itself). The pool's own chunk boundaries depend on the
// thread count, so per-chunk reductions that must be thread-count-invariant
// have to use a caller-fixed chunking (see
// msearch::detail::advance_through_levels for the pattern).
//
// Reentrancy rule: parallel_for is NOT recursively parallel. A body that
// itself reaches parallel_for (or parallel_for_chunks, of any pool) runs
// the nested loop serially on the calling thread. This is detected via a
// thread-local participant flag; without it a nested call would overwrite
// the pool's live job state under its mutex and deadlock or corrupt the
// run.
//
// Thread count: the global pool is sized by the MESHSEARCH_THREADS
// environment variable (unset or 0 = hardware concurrency, 1 = fully
// serial); tests and benches can rebuild it with
// ThreadPool::set_global_threads.
//
// NOTE: parallel_for accelerates wall-clock time only. Simulated mesh step
// counts are computed analytically and are identical with 1 or N threads.
#pragma once

#include <concepts>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace meshsearch::util {

/// Parse a MESHSEARCH_THREADS-style value: a positive decimal integer in
/// [1, 4096] (strtoul semantics, so leading whitespace and '+' are accepted;
/// a leading zero like "08" reads as 8). Returns 0 for anything else —
/// empty, trailing garbage ("8x"), zero, negative, or out of range.
unsigned parse_thread_count(const char* text);

/// Thread count the global pool is built with when no override is given:
/// MESHSEARCH_THREADS when set to a positive integer, else
/// hardware_concurrency (at least 1). Re-reads the environment on each call.
/// A set-but-malformed MESHSEARCH_THREADS still falls back to hardware
/// concurrency, but emits a one-time stderr warning naming the rejected
/// value instead of being silently ignored.
unsigned default_thread_count();

/// Persistent thread pool executing [begin, end) index ranges.
class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Type-erased chunk job: body(lo, hi) runs iterations [lo, hi). The
  /// type-erasure cost is paid once per chunk, not once per index (the
  /// free parallel_for below wraps its per-index body this way).
  using ChunkBody = std::function<void(std::size_t, std::size_t)>;

  /// Run body over [begin, end) in chunks of at least `grain` indices,
  /// statically assigned across workers. Blocks until all chunks complete.
  ///
  /// Exception propagation is deterministic: when bodies throw, the
  /// exception that propagates is the one from the LOWEST chunk index
  /// (each participant stops at its first throwing chunk and records it;
  /// the rethrow takes the global minimum). Because chunks and the indices
  /// within them run in ascending order, that is the exception thrown at
  /// the smallest failing index — the same one a serial loop would have
  /// thrown — regardless of thread count or scheduling. Chunks after a
  /// participant's first throwing chunk are abandoned; chunks owned by
  /// other participants may still run to completion.
  ///
  /// Nested calls from inside a running body execute body(begin, end)
  /// serially on the calling thread.
  void parallel_for_chunks(std::size_t begin, std::size_t end,
                           const ChunkBody& body, std::size_t grain = 1);

  /// True while the calling thread is executing a parallel_for body (of any
  /// pool) — i.e. a parallel_for issued now would run serially.
  static bool in_parallel_region();

  /// Process-wide pool, created on first use with default_thread_count()
  /// threads (the MESHSEARCH_THREADS knob).
  static ThreadPool& global();

  /// Rebuild the global pool with `threads` threads (0 = back to
  /// default_thread_count()). Must not be called while any thread is inside
  /// a parallel region. For tests and bench sweeps.
  static void set_global_threads(unsigned threads);

 private:
  struct Job {
    std::size_t begin = 0, end = 0, chunk = 0, nchunks = 0;
    const ChunkBody* body = nullptr;
  };

  void worker_loop(unsigned id);
  void run_chunks(const Job& job, unsigned id, unsigned nparticipants);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  Job job_;
  std::uint64_t epoch_ = 0;       // incremented per parallel_for call
  unsigned remaining_ = 0;        // workers still running current epoch
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;   // per participant, first throw
  std::vector<std::size_t> error_chunks_;    // chunk index of that throw
};

/// Run body(i) over [begin, end) on the global pool. Falls back to a serial
/// loop for tiny (or empty/inverted) ranges and inside a parallel region.
/// The body is inlined into a per-chunk trampoline, so the ChunkBody
/// indirection is paid once per chunk instead of once per index.
template <typename Body>
  requires std::invocable<Body&, std::size_t>
void parallel_for(std::size_t begin, std::size_t end, Body&& body,
                  std::size_t grain = 1) {
  if (begin >= end) return;  // inverted ranges are empty, not a huge count
  if (end - begin < 2 * grain || ThreadPool::in_parallel_region()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  const ThreadPool::ChunkBody chunked = [&body](std::size_t lo,
                                                std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) body(i);
  };
  ThreadPool::global().parallel_for_chunks(begin, end, chunked, grain);
}

/// Caller-fixed chunking for thread-count-invariant reductions (DESIGN.md
/// §5.6): the pool's own chunk boundaries depend on its thread count, so any
/// per-chunk partial result that feeds a deterministic merge must instead be
/// keyed by this FIXED partition of [0, n) into kFixedChunks near-equal
/// ranges. Merging the partials in ascending chunk index then yields the
/// same bits at 1 or N threads.
inline constexpr std::size_t kFixedChunks = 64;

/// Number of non-empty fixed chunks covering [0, n).
inline std::size_t fixed_chunk_count(std::size_t n) {
  return n < kFixedChunks ? n : kFixedChunks;
}

/// Run body(chunk, lo, hi) for each fixed chunk covering [0, n), with the
/// chunks themselves distributed over the pool. `chunk` indexes the fixed
/// partition (stable across thread counts), so per-chunk state the caller
/// allocated as arrays of fixed_chunk_count(n) entries is written
/// race-free and merged deterministically afterwards.
template <typename Body>
  requires std::invocable<Body&, std::size_t, std::size_t, std::size_t>
void for_fixed_chunks(std::size_t n, Body&& body) {
  const std::size_t nchunks = fixed_chunk_count(n);
  parallel_for(0, nchunks, [&](std::size_t c) {
    const std::size_t lo = n * c / nchunks;
    const std::size_t hi = n * (c + 1) / nchunks;
    body(c, lo, hi);
  });
}

}  // namespace meshsearch::util
