// Unit tests for the utility layer: deterministic RNG, statistics fits,
// the thread pool, and the table writer.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <sstream>
#include <thread>

#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace meshsearch;

TEST(Rng, DeterministicForSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInBounds) {
  util::Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformRangeInclusive) {
  util::Rng rng(7);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  util::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform_real();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  util::Rng rng(5);
  std::array<int, 10> buckets{};
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++buckets[rng.uniform(10)];
  for (int b : buckets) {
    EXPECT_GT(b, draws / 10 * 0.9);
    EXPECT_LT(b, draws / 10 * 1.1);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  util::Rng a(9);
  util::Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, Mix64AvalanchesLowBits) {
  // Consecutive inputs must produce well-spread outputs.
  std::array<int, 16> buckets{};
  for (std::uint64_t i = 0; i < 1600; ++i) ++buckets[util::mix64(i) % 16];
  for (int b : buckets) EXPECT_GT(b, 50);
}

TEST(Rng, Splitmix64MatchesReferenceOutputs) {
  // The published splitmix64 stream from state 0; mix64(x) is one round
  // from state x. Every hashed workload and pinned digest depends on these.
  std::uint64_t state = 0;
  EXPECT_EQ(util::splitmix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(util::splitmix64(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(util::splitmix64(state), 0x06c45d188009454full);
  EXPECT_EQ(util::mix64(0), 0xe220a8397b1dcdafull);
}

TEST(Zipf, SkewsTowardLowRanks) {
  util::Rng rng(3);
  util::Zipf zipf(1000, 1.2);
  std::size_t low = 0, draws = 20000;
  for (std::size_t i = 0; i < draws; ++i) low += zipf(rng) < 10;
  // With s=1.2 the top-10 ranks carry a large constant fraction.
  EXPECT_GT(low, draws / 4);
}

TEST(Zipf, ZeroSkewIsUniform) {
  util::Rng rng(3);
  util::Zipf zipf(10, 0.0);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 50000; ++i) ++buckets[zipf(rng)];
  for (int b : buckets) {
    EXPECT_GT(b, 4200);
    EXPECT_LT(b, 5800);
  }
}

TEST(RandomPermutation, IsAPermutation) {
  util::Rng rng(13);
  const auto perm = util::random_permutation(257, rng);
  std::vector<bool> seen(257, false);
  for (auto v : perm) {
    ASSERT_LT(v, 257u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.5 * i - 2.0);
  }
  const auto f = util::fit_linear(xs, ys);
  EXPECT_NEAR(f.slope, 3.5, 1e-9);
  EXPECT_NEAR(f.intercept, -2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, PowerFitRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x = 64; x <= 1 << 20; x *= 2) {
    xs.push_back(x);
    ys.push_back(7.0 * std::pow(x, 0.5));
  }
  const auto f = util::fit_power(xs, ys);
  EXPECT_NEAR(f.exponent, 0.5, 1e-9);
  EXPECT_NEAR(std::exp(f.log_coeff), 7.0, 1e-6);
}

TEST(ParallelFor, ComputesAllIndices) {
  std::vector<std::atomic<int>> hits(10000);
  util::parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  int count = 0;
  util::parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::atomic<int> c2{0};
  util::parallel_for(0, 3, [&](std::size_t) { ++c2; });
  EXPECT_EQ(c2.load(), 3);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(util::parallel_for(0, 10000,
                                  [](std::size_t i) {
                                    if (i == 4321)
                                      throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
}

TEST(ParallelFor, MultiThrowPropagatesLowestIndexDeterministically) {
  // When several chunks throw concurrently, the propagated exception must be
  // the one from the lowest chunk index — equivalently, the exception a
  // serial loop would have thrown first — at every thread count. Before the
  // deterministic-propagation fix the winner was the lowest PARTICIPANT id,
  // which depends on which chunks each thread happens to own.
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    std::string caught;
    try {
      util::parallel_for(
          0, 100000,
          [](std::size_t i) {
            // Many throwing indices spread across the range so that with
            // any chunking several participants throw in the same run.
            if (i % 1000 == 137) throw std::runtime_error(std::to_string(i));
          },
          /*grain=*/1);
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "137") << "threads=" << threads;
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(ParallelFor, PoolIsReusableAfterException) {
  auto& pool = util::ThreadPool::global();
  try {
    pool.parallel_for_chunks(0, 100, [](std::size_t, std::size_t) {
      throw std::runtime_error("x");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> c{0};
  pool.parallel_for_chunks(0, 1000, [&](std::size_t lo, std::size_t hi) {
    c += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(c.load(), 1000);
}

TEST(ParallelFor, DeterministicResults) {
  std::vector<double> slot(1 << 16), slot2(1 << 16);
  util::parallel_for(0, slot.size(),
                     [&](std::size_t i) { slot[i] = std::sqrt(double(i)); });
  util::parallel_for(0, slot2.size(),
                     [&](std::size_t i) { slot2[i] = std::sqrt(double(i)); });
  const double a = std::accumulate(slot.begin(), slot.end(), 0.0);
  const double b = std::accumulate(slot2.begin(), slot2.end(), 0.0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(ParallelFor, InvertedRangeIsEmpty) {
  // begin > end must be an empty range on every entry point; with unsigned
  // arithmetic a missing guard turns it into a near-2^64 iteration count.
  int count = 0;
  util::parallel_for(std::size_t{10}, std::size_t{2},
                     [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  // A std::function lvalue binds to the same template.
  const std::function<void(std::size_t)> body = [&](std::size_t) { ++count; };
  util::parallel_for(std::size_t{10}, std::size_t{2}, body);
  EXPECT_EQ(count, 0);
  util::ThreadPool::global().parallel_for_chunks(
      10, 2, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  // Regression: a body calling parallel_for from a pool worker used to
  // overwrite the pool's live job state and deadlock or corrupt the run.
  // The nested loop must run serially on the calling thread instead.
  util::ThreadPool::set_global_threads(4);
  ASSERT_EQ(util::ThreadPool::global().thread_count(), 4u);
  std::vector<std::size_t> sums(64, 0);
  std::atomic<int> outer_bodies{0};
  util::parallel_for(
      std::size_t{0}, sums.size(),
      [&](std::size_t i) {
        EXPECT_TRUE(util::ThreadPool::in_parallel_region());
        std::size_t local = 0;
        util::parallel_for(std::size_t{0}, std::size_t{100},
                           [&](std::size_t j) {
                             EXPECT_TRUE(
                                 util::ThreadPool::in_parallel_region());
                             local += i * j;  // nested loop is serial here
                           });
        sums[i] = local;
        ++outer_bodies;
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < sums.size(); ++i) EXPECT_EQ(sums[i], i * 4950);
  EXPECT_EQ(outer_bodies.load(), 64);
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
  util::ThreadPool::set_global_threads(0);
}

TEST(ParallelFor, NestedExceptionPropagates) {
  util::ThreadPool::set_global_threads(4);
  EXPECT_THROW(util::parallel_for(std::size_t{0}, std::size_t{64},
                                  [&](std::size_t i) {
                                    util::parallel_for(
                                        std::size_t{0}, std::size_t{16},
                                        [&](std::size_t j) {
                                          if (i == 17 && j == 3)
                                            throw std::runtime_error("inner");
                                        });
                                  }),
               std::runtime_error);
  util::ThreadPool::set_global_threads(0);
}

TEST(ParallelFor, SetGlobalThreadsRebuildsPool) {
  util::ThreadPool::set_global_threads(2);
  EXPECT_EQ(util::ThreadPool::global().thread_count(), 2u);
  std::atomic<int> c{0};
  util::parallel_for(std::size_t{0}, std::size_t{1000},
                     [&](std::size_t) { ++c; });
  EXPECT_EQ(c.load(), 1000);
  util::ThreadPool::set_global_threads(0);
  EXPECT_EQ(util::ThreadPool::global().thread_count(),
            util::default_thread_count());
}

TEST(ParallelFor, ParseThreadCountAcceptsOnlyBoundedPositiveIntegers) {
  EXPECT_EQ(util::parse_thread_count("1"), 1u);
  EXPECT_EQ(util::parse_thread_count("8"), 8u);
  EXPECT_EQ(util::parse_thread_count("4096"), 4096u);
  // strtoul semantics kept on purpose (these always worked):
  EXPECT_EQ(util::parse_thread_count(" 8"), 8u);   // leading whitespace
  EXPECT_EQ(util::parse_thread_count("+8"), 8u);   // explicit sign
  EXPECT_EQ(util::parse_thread_count("08"), 8u);   // decimal, not octal
  // Everything else is rejected (0 = "fall back and warn"):
  EXPECT_EQ(util::parse_thread_count(nullptr), 0u);
  EXPECT_EQ(util::parse_thread_count(""), 0u);
  EXPECT_EQ(util::parse_thread_count("0"), 0u);
  EXPECT_EQ(util::parse_thread_count("-1"), 0u);     // wraps to huge: rejected
  EXPECT_EQ(util::parse_thread_count("4097"), 0u);   // above the cap
  EXPECT_EQ(util::parse_thread_count("8x"), 0u);     // trailing garbage
  EXPECT_EQ(util::parse_thread_count("x8"), 0u);
  EXPECT_EQ(util::parse_thread_count("3.5"), 0u);
  EXPECT_EQ(util::parse_thread_count("8 "), 0u);     // trailing whitespace
  EXPECT_EQ(util::parse_thread_count("99999999999999999999"), 0u);  // overflow
}

TEST(ParallelFor, EnvKnobControlsDefaultThreadCount) {
  const unsigned hw =
      std::max(1u, std::thread::hardware_concurrency());
  ::setenv("MESHSEARCH_THREADS", "3", 1);
  EXPECT_EQ(util::default_thread_count(), 3u);
  ::setenv("MESHSEARCH_THREADS", "0", 1);  // invalid: fall back to hardware
  EXPECT_EQ(util::default_thread_count(), hw);
  ::setenv("MESHSEARCH_THREADS", "not-a-number", 1);
  EXPECT_EQ(util::default_thread_count(), hw);
  ::setenv("MESHSEARCH_THREADS", "8x", 1);  // typo'd: fall back, don't misread
  EXPECT_EQ(util::default_thread_count(), hw);
  ::unsetenv("MESHSEARCH_THREADS");
  EXPECT_EQ(util::default_thread_count(), hw);
}

TEST(ParallelFor, ChunkInterfaceCoversRangeOnce) {
  std::vector<int> hits(10000, 0);
  std::atomic<int> chunks{0};
  util::ThreadPool::global().parallel_for_chunks(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        ++chunks;
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      },
      /*grain=*/64);
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_GE(chunks.load(), 1);
}

TEST(Table, PrintsAlignedAndCsv) {
  util::Table t({"name", "value"});
  t.add_row({std::string("alpha"), 1.5});
  t.add_row({std::string("b,c"), std::int64_t{42}});
  std::ostringstream text, csv;
  t.print(text);
  t.write_csv(csv);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(csv.str().find("\"b,c\",42"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsRaggedRows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), std::logic_error);
}

}  // namespace
