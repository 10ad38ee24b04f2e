// Unit tests for the PRAM simulator facade (pram/machine.hpp).

#include "pram/machine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

namespace subdp::pram {
namespace {

TEST(Machine, StepRunsEveryLogicalProcessor) {
  Machine m;
  std::vector<std::atomic<int>> hits(500);
  m.step("touch", 500, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
    return std::uint64_t{1};
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(Machine, WorkIsSumOfReportedOps) {
  Machine m;
  const auto work = m.step("varops", 10, [](std::int64_t i) {
    return static_cast<std::uint64_t>(i);  // 0 + 1 + ... + 9 = 45
  });
  EXPECT_EQ(work, 45u);
  EXPECT_EQ(m.costs().total_work(), 45u);
}

TEST(Machine, DepthChargesLogOfWidestReduction) {
  Machine m;
  m.step("map", 100, [](std::int64_t) { return std::uint64_t{1}; });
  EXPECT_EQ(m.costs().total_depth(), 1u);  // unit-work processors
  m.step("reduce", 4, [](std::int64_t) { return std::uint64_t{8}; });
  // widest = 8 candidates -> depth 1 + ceil(log2 8) = 4.
  EXPECT_EQ(m.costs().total_depth(), 1u + 4u);
}

TEST(Machine, EmptyStepRecordsNothing) {
  Machine m;
  EXPECT_EQ(m.step("empty", 0, [](std::int64_t) { return std::uint64_t{1}; }),
            0u);
  EXPECT_EQ(m.costs().step_count(), 0u);
}

TEST(Machine, RunBlocksChargesNothing) {
  // The fast path covers the range but never touches the ledger; only
  // `step` is accounted.
  Machine m;
  std::atomic<std::int64_t> covered{0};
  m.run_blocks(10, [&](std::int64_t lo, std::int64_t hi) {
    covered.fetch_add(hi - lo);
  });
  EXPECT_EQ(covered.load(), 10);
  EXPECT_EQ(m.costs().step_count(), 0u);
}

TEST(Machine, CrewCheckerAbsentByDefault) {
  Machine m;
  EXPECT_EQ(m.crew(), nullptr);
  m.note_write(3);  // must be a harmless no-op
}

TEST(Machine, CrewCheckerFlagsConflictingStep) {
  MachineOptions opts;
  opts.check_crew = true;
  opts.backend = Backend::kSerial;
  Machine m(opts);
  m.step("conflict", 10, [&](std::int64_t) {
    m.note_write(42);  // every processor writes the same cell
    return std::uint64_t{1};
  });
  ASSERT_NE(m.crew(), nullptr);
  EXPECT_GE(m.crew()->violation_count(), 1u);
}

TEST(Machine, CrewCheckerPassesOwnerComputesStep) {
  MachineOptions opts;
  opts.check_crew = true;
  Machine m(opts);
  m.step("owner", 100, [&](std::int64_t i) {
    m.note_write(static_cast<std::uint64_t>(i));
    return std::uint64_t{1};
  });
  EXPECT_EQ(m.crew()->violation_count(), 0u);
}

TEST(Machine, ResetClearsLedgerAndCrew) {
  MachineOptions opts;
  opts.check_crew = true;
  Machine m(opts);
  m.step("s", 10, [&](std::int64_t) {
    m.note_write(1);
    return std::uint64_t{1};
  });
  m.reset();
  EXPECT_EQ(m.costs().step_count(), 0u);
  EXPECT_EQ(m.crew()->violation_count(), 0u);
}

class MachineBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(MachineBackendTest, WorkCountIsBackendIndependent) {
  MachineOptions opts;
  opts.backend = GetParam();
  Machine m(opts);
  const auto work = m.step("w", 1000, [](std::int64_t i) {
    return static_cast<std::uint64_t>(i % 7);
  });
  std::uint64_t expected = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    expected += static_cast<std::uint64_t>(i % 7);
  }
  EXPECT_EQ(work, expected);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, MachineBackendTest,
                         ::testing::Values(Backend::kSerial,
                                           Backend::kThreadPool));

}  // namespace
}  // namespace subdp::pram
