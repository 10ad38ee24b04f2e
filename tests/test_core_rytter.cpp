// Tests for the Rytter-style baseline (SquareMode::kRytterFull +
// core::solve_rytter): correctness on small instances, O(log n)
// iteration counts, and the work trade-off against the paper's square.

#include <gtest/gtest.h>

#include "core/api.hpp"
#include "core/sublinear_solver.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/optimal_bst.hpp"
#include "dp/sequential.hpp"
#include "dp/tree_shaped.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "trees/generators.hpp"

namespace subdp::core {
namespace {

TEST(Rytter, MatchesSequentialOnRandomInstances) {
  support::Rng rng(91);
  for (const std::size_t n : {2u, 3u, 5u, 8u, 12u}) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto p = dp::MatrixChainProblem::random(n, rng);
      const auto result = solve_rytter(p);
      ASSERT_EQ(result.cost, dp::solve_sequential(p).cost)
          << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(Rytter, MatchesSequentialOnBsts) {
  support::Rng rng(92);
  const auto p = dp::OptimalBstProblem::random(11, rng);
  EXPECT_EQ(solve_rytter(p).cost, dp::solve_sequential(p).cost);
}

TEST(Rytter, ConvergesInLogarithmicIterationsOnZigzag) {
  // Full squaring doubles the handled path length every iteration, so
  // even the paper's worst-case shape converges in O(log n) iterations —
  // the move-count half of the trade-off (Sec. 3 discussion).
  support::Rng rng(93);
  for (const std::size_t n : {8u, 16u}) {
    auto inst = dp::make_tree_shaped_instance(
        trees::make_tree(trees::TreeShape::kZigzag, n), rng);
    const auto result = solve_rytter(inst.problem);
    EXPECT_EQ(result.cost, inst.optimal_cost);
    EXPECT_LE(result.iterations, 2 * support::ceil_log2(n) + 4) << "n=" << n;
  }
}

TEST(Rytter, FewerIterationsButMoreWorkThanHlvOnZigzag) {
  support::Rng rng(94);
  const std::size_t n = 16;
  auto inst = dp::make_tree_shaped_instance(
      trees::make_tree(trees::TreeShape::kZigzag, n), rng);

  SublinearOptions hlv_opts;
  hlv_opts.variant = PwVariant::kDense;
  hlv_opts.square_mode = SquareMode::kHlvOneLevel;
  hlv_opts.termination = TerminationMode::kFixedPoint;
  hlv_opts.engine = EngineKind::kReference;
  SublinearSolver hlv(hlv_opts);
  const auto hlv_result = hlv.solve(inst.problem);

  SublinearOptions ryt_opts;
  ryt_opts.variant = PwVariant::kDense;
  ryt_opts.square_mode = SquareMode::kRytterFull;
  ryt_opts.termination = TerminationMode::kFixedPoint;
  ryt_opts.engine = EngineKind::kReference;
  SublinearSolver ryt(ryt_opts);
  const auto ryt_result = ryt.solve(inst.problem);

  EXPECT_EQ(hlv_result.cost, ryt_result.cost);
  // Zigzag: Rytter needs fewer iterations...
  EXPECT_LT(ryt_result.iterations, hlv_result.iterations);
  // ...but each of its square steps costs far more work.
  const auto hlv_square =
      hlv.machine().costs().phase_totals().at("a-square");
  const auto ryt_square =
      ryt.machine().costs().phase_totals().at("a-square");
  EXPECT_GT(ryt_square.work / ryt_square.steps,
            2 * (hlv_square.work / hlv_square.steps));
}

TEST(Rytter, RefusesLargeInstances) {
  support::Rng rng(95);
  const auto p = dp::MatrixChainProblem::random(30, rng);
  EXPECT_THROW((void)solve_rytter(p), std::invalid_argument);
}

TEST(Rytter, AcceptsOptionsAndAssertsSquareMode) {
  support::Rng rng(97);
  const auto p = dp::MatrixChainProblem::random(10, rng);

  // solve_rytter shares the solver's options surface: tweaks like the
  // termination mode ride along, but the square mode is pinned.
  SublinearOptions options = rytter_options();
  options.termination = TerminationMode::kFixedBound;
  const auto full = solve_rytter(p, options);
  EXPECT_EQ(full.cost, dp::solve_sequential(p).cost);
  EXPECT_EQ(full.iterations, 4 * support::ceil_log2(10) + 8);

  SublinearOptions wrong = rytter_options();
  wrong.square_mode = SquareMode::kHlvOneLevel;
  EXPECT_THROW((void)solve_rytter(p, wrong), std::invalid_argument);
}

TEST(Rytter, MatchesEquivalentSolverConfiguration) {
  // The redesigned entry point routes through the same plan/session
  // machinery as SublinearSolver; identical options must give identical
  // results and traces.
  support::Rng rng(98);
  const auto p = dp::MatrixChainProblem::random(12, rng);
  const auto via_api = solve_rytter(p);
  SublinearSolver solver(rytter_options());
  const auto via_solver = solver.solve(p);
  EXPECT_EQ(via_api.cost, via_solver.cost);
  EXPECT_EQ(via_api.iterations, via_solver.iterations);
  EXPECT_TRUE(via_api.w == via_solver.w);
}

TEST(Rytter, ReachesFixedPoint) {
  support::Rng rng(96);
  const auto p = dp::MatrixChainProblem::random(10, rng);
  const auto result = solve_rytter(p);
  EXPECT_TRUE(result.reached_fixed_point);
}

}  // namespace
}  // namespace subdp::core
