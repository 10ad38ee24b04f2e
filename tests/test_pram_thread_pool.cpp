// Unit tests for the fork-join pool (pram/thread_pool.hpp).

#include "pram/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/api.hpp"
#include "serve/solver_service.hpp"
#include "support/rng.hpp"

namespace subdp::pram {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, 7, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NonZeroBeginRespected) {
  ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(100, 200, 13, [&](std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) {
    calls.fetch_add(1);
  });
  pool.parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, AutomaticGrainStillCovers) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> count{0};
  pool.parallel_for(0, 12345, 0, [&](std::int64_t lo, std::int64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 12345);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> count{0};
    pool.parallel_for(0, 100, 3, [&](std::int64_t lo, std::int64_t hi) {
      count.fetch_add(hi - lo);
    });
    ASSERT_EQ(count.load(), 100) << "round " << round;
  }
}

TEST(ThreadPool, BodyExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::int64_t lo, std::int64_t) {
                          if (lo == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<std::int64_t> count{0};
  pool.parallel_for(0, 10, 1, [&](std::int64_t lo, std::int64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  std::int64_t sum = 0;  // no atomics needed: single thread
  pool.parallel_for(0, 100, 10, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
  EXPECT_GE(ThreadPool::shared().parallelism(), 1u);
}

// ---- Concurrent issuers ----------------------------------------------------
// Loops issued from several threads at once must each run their own body
// over their own range exactly once: one issuer owns the workers, the
// others run inline.

TEST(ThreadPool, ConcurrentIssuersEachRunTheirOwnBody) {
  ThreadPool pool(4);
  constexpr int kIssuers = 6;
  constexpr int kRounds = 200;
  constexpr std::int64_t kLen = 997;
  std::vector<std::atomic<std::int64_t>> sums(kIssuers);
  std::vector<std::thread> issuers;
  for (int t = 0; t < kIssuers; ++t) {
    issuers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(0, kLen, 5, [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t local = 0;
          for (std::int64_t i = lo; i < hi; ++i) local += i * (t + 1);
          sums[static_cast<std::size_t>(t)].fetch_add(local);
        });
      }
    });
  }
  for (auto& th : issuers) th.join();
  for (int t = 0; t < kIssuers; ++t) {
    EXPECT_EQ(sums[static_cast<std::size_t>(t)].load(),
              kRounds * (t + 1) * (kLen * (kLen - 1) / 2))
        << "issuer " << t;
  }
}

TEST(ThreadPool, ConcurrentDefaultSolvesMatchSerial) {
  // core::solve with default options runs the fast engine on the shared
  // pool; four threads doing so at once must each get the serial answer.
  support::Rng rng(4040);
  std::vector<std::unique_ptr<dp::Problem>> problems;
  for (const char* family : {"matrix-chain", "zigzag", "optimal-bst",
                             "triangulation"}) {
    problems.push_back(bench::make_instance(family, 40, rng));
  }
  core::SublinearOptions serial;
  serial.machine.backend = Backend::kSerial;
  std::vector<core::Solution> expected;
  for (const auto& p : problems) expected.push_back(core::solve(*p, serial));

  std::vector<std::vector<core::Solution>> got(problems.size());
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < problems.size(); ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        got[t].push_back(core::solve(*problems[t]));
      }
    });
  }
  for (auto& th : callers) th.join();
  for (std::size_t t = 0; t < problems.size(); ++t) {
    for (const core::Solution& s : got[t]) {
      EXPECT_EQ(s.cost, expected[t].cost) << "caller " << t;
      EXPECT_EQ(s.iterations, expected[t].iterations) << "caller " << t;
      ASSERT_EQ(s.tree.node_count(), expected[t].tree.node_count());
      for (std::size_t k = 0; k < s.tree.node_count(); ++k) {
        const auto x = static_cast<trees::NodeId>(k);
        EXPECT_EQ(s.tree.lo(x), expected[t].tree.lo(x)) << "caller " << t;
        EXPECT_EQ(s.tree.hi(x), expected[t].tree.hi(x)) << "caller " << t;
      }
    }
  }
}

TEST(ThreadPool, TwoOneWorkerServicesSolveAtOnce) {
  // A one-worker service keeps the thread-pool backend, so two of them
  // are two issuers on the shared pool.
  support::Rng rng(5050);
  std::vector<std::unique_ptr<dp::Problem>> problems;
  for (int k = 0; k < 6; ++k) {
    problems.push_back(bench::make_instance("matrix-chain", 36, rng));
  }
  std::vector<const dp::Problem*> views;
  for (const auto& p : problems) views.push_back(p.get());

  serve::ServiceOptions options;
  options.workers = 1;
  options.solver.machine.backend = Backend::kThreadPool;
  serve::SolverService a(options);
  serve::SolverService b(options);
  core::BatchResult out_a;
  core::BatchResult out_b;
  std::thread ta([&] { out_a = a.solve_all(views); });
  std::thread tb([&] { out_b = b.solve_all(views); });
  ta.join();
  tb.join();

  core::SublinearOptions serial;
  serial.machine.backend = Backend::kSerial;
  ASSERT_EQ(out_a.results.size(), problems.size());
  ASSERT_EQ(out_b.results.size(), problems.size());
  for (std::size_t k = 0; k < problems.size(); ++k) {
    const core::Solution want = core::solve(*problems[k], serial);
    EXPECT_EQ(out_a.results[k].cost, want.cost) << k;
    EXPECT_EQ(out_b.results[k].cost, want.cost) << k;
    EXPECT_TRUE(out_a.results[k].w == out_b.results[k].w) << k;
  }
}

}  // namespace
}  // namespace subdp::pram
