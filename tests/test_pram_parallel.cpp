// Backend-parameterized tests for parallel loops (pram/parallel.hpp):
// every backend must cover the same index set exactly once and produce
// identical results.

#include "pram/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace subdp::pram {
namespace {

class ParallelBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ParallelBackendTest, BlockedCoversExactlyOnce) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for_blocked(GetParam(), 0, 5000, 64,
                       [&](std::int64_t lo, std::int64_t hi) {
                         for (std::int64_t i = lo; i < hi; ++i) {
                           hits[static_cast<std::size_t>(i)].fetch_add(1);
                         }
                       });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST_P(ParallelBackendTest, EachCoversExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_each(GetParam(), 0, 1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST_P(ParallelBackendTest, EmptyRangeDoesNothing) {
  std::atomic<int> calls{0};
  parallel_for_blocked(GetParam(), 3, 3, 1,
                       [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST_P(ParallelBackendTest, SumMatchesSerialFold) {
  std::atomic<std::int64_t> sum{0};
  parallel_for_blocked(GetParam(), 1, 10001, 0,
                       [&](std::int64_t lo, std::int64_t hi) {
                         std::int64_t local = 0;
                         for (std::int64_t i = lo; i < hi; ++i) local += i;
                         sum.fetch_add(local);
                       });
  EXPECT_EQ(sum.load(), 10000LL * 10001 / 2);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ParallelBackendTest,
    ::testing::Values(Backend::kSerial, Backend::kThreadPool),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(to_string(info.param)) == "threads"
                 ? "threadpool"
                 : std::string(to_string(info.param));
    });

TEST(BackendNames, RoundTrip) {
  EXPECT_EQ(backend_from_string("serial"), Backend::kSerial);
  EXPECT_EQ(backend_from_string("threads"), Backend::kThreadPool);
  EXPECT_FALSE(backend_from_string("openmp").has_value());
  EXPECT_FALSE(backend_from_string("omp").has_value());
  EXPECT_EQ(backend_from_string(to_string(Backend::kSerial)),
            Backend::kSerial);
  EXPECT_FALSE(backend_from_string("bogus").has_value());
}

TEST(BackendNames, DefaultIsAlwaysAvailable) {
  EXPECT_EQ(default_backend(), Backend::kThreadPool);
}

}  // namespace
}  // namespace subdp::pram
