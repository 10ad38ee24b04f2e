// Tests for the diagonal-parallel baseline (dp/wavefront.hpp): equality
// with the sequential solver on every backend, PRAM accounting shape, and
// CREW conformance.

#include "dp/wavefront.hpp"

#include <gtest/gtest.h>

#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/sequential.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace subdp::dp {
namespace {

class WavefrontBackendTest
    : public ::testing::TestWithParam<pram::Backend> {};

TEST_P(WavefrontBackendTest, MatchesSequentialOnMatrixChains) {
  support::Rng rng(41);
  pram::MachineOptions opts;
  opts.backend = GetParam();
  for (const std::size_t n : {1u, 2u, 3u, 8u, 25u, 40u}) {
    const auto p = MatrixChainProblem::random(n, rng);
    pram::Machine machine(opts);
    const auto par = solve_wavefront(p, machine);
    const auto seq = solve_sequential(p);
    ASSERT_EQ(par.cost, seq.cost) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j <= n; ++j) {
        ASSERT_EQ(par.c(i, j), seq.c(i, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, WavefrontBackendTest,
                         ::testing::Values(pram::Backend::kSerial,
                                           pram::Backend::kThreadPool));

TEST(Wavefront, ValidatesAsAFullResult) {
  support::Rng rng(42);
  const auto p = OptimalBstProblem::random(15, rng);
  pram::Machine machine;
  const auto result = solve_wavefront(p, machine);
  EXPECT_TRUE(validate_result(p, result));
}

TEST(Wavefront, UsesOneStepPerDiagonalPlusInit) {
  support::Rng rng(43);
  const std::size_t n = 20;
  const auto p = MatrixChainProblem::random(n, rng);
  pram::Machine machine;
  (void)solve_wavefront(p, machine);
  // init + one step per length 2..n.
  EXPECT_EQ(machine.costs().step_count(), n);
}

TEST(Wavefront, WorkMatchesSequentialTripleCount) {
  support::Rng rng(44);
  const std::size_t n = 24;
  const auto p = MatrixChainProblem::random(n, rng);
  pram::Machine machine;
  (void)solve_wavefront(p, machine);
  std::uint64_t seq_ops = 0;
  (void)solve_sequential(p, &seq_ops);
  // Same candidate evaluations (plus n unit init writes): work-optimal.
  EXPECT_EQ(machine.costs().total_work(), seq_ops + n);
}

TEST(Wavefront, DepthIsLinearWithLogFactors) {
  support::Rng rng(45);
  const std::size_t n = 32;
  const auto p = MatrixChainProblem::random(n, rng);
  pram::Machine machine;
  (void)solve_wavefront(p, machine);
  const auto depth = machine.costs().total_depth();
  // n steps, each depth 1 + ceil(log2(len-1)) <= 1 + log2(n).
  EXPECT_GE(depth, n - 1);
  EXPECT_LE(depth, n * (2 + support::ceil_log2(n)));
}

TEST(Wavefront, IsCrewConformant) {
  support::Rng rng(46);
  const auto p = MatrixChainProblem::random(18, rng);
  pram::MachineOptions opts;
  opts.check_crew = true;
  pram::Machine machine(opts);
  (void)solve_wavefront(p, machine);
  ASSERT_NE(machine.crew(), nullptr);
  EXPECT_EQ(machine.crew()->violation_count(), 0u)
      << machine.crew()->first_violation();
}

}  // namespace
}  // namespace subdp::dp
