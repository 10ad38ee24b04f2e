// Tests of the plan/session architecture: prepare-once/solve-many
// bit-identity against one-shot solves, in-place session reuse, plan
// sharing across sessions, ledger resets between instances, and the
// SublinearSolver facade's plan reuse. The batched front door's grouping
// and aggregation are tested with the service (test_serve_service.cpp).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "core/sublinear_solver.hpp"
#include "dp/matrix_chain.hpp"
#include "dp/sequential.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace subdp::core {
namespace {

std::vector<dp::MatrixChainProblem> random_chains(std::size_t count,
                                                  std::size_t n,
                                                  std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<dp::MatrixChainProblem> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(dp::MatrixChainProblem::random(n, rng));
  }
  return out;
}

TEST(Plan, ValidatesOptionsPerShape) {
  EXPECT_EQ(SolvePlan::create(20)->iteration_bound(),
            support::two_ceil_sqrt(20));
  EXPECT_EQ(SolvePlan::create(20)->effective_band(),
            support::two_ceil_sqrt(20));

  SublinearOptions dense;
  dense.variant = PwVariant::kDense;
  EXPECT_THROW((void)SolvePlan::create(DensePwTable::kMaxDenseN + 1, dense),
               std::invalid_argument);

  SublinearOptions windowed;
  windowed.windowed_pebble = true;  // default termination is fixed-point
  EXPECT_THROW((void)SolvePlan::create(16, windowed),
               std::invalid_argument);

  SublinearOptions banded;
  banded.band_width = 5;
  EXPECT_EQ(SolvePlan::create(32, banded)->effective_band(), 5u);
}

TEST(Plan, SharedAcrossSessionsGivesIdenticalResults) {
  const std::size_t n = 18;
  const auto problems = random_chains(3, n, 501);
  auto plan = SolvePlan::create(n);
  SolveSession a(plan);
  SolveSession b(plan);  // same immutable plan, independent tables
  for (const auto& p : problems) {
    const auto ra = a.solve(p);
    const auto rb = b.solve(p);
    EXPECT_EQ(ra.cost, rb.cost);
    EXPECT_TRUE(ra.w == rb.w);
    EXPECT_EQ(ra.iterations, rb.iterations);
    EXPECT_EQ(ra.cost, dp::solve_sequential(p).cost);
  }
}

TEST(Session, ReuseIsBitIdenticalToFreshSolves) {
  // One session solving several different problems in sequence must be
  // bit-identical to a fresh solver per problem: the in-place reset may
  // not leak any state between instances.
  const std::size_t n = 24;
  const auto problems = random_chains(5, n, 502);
  SolveSession session(SolvePlan::create(n));
  for (const auto& p : problems) {
    const auto reused = session.solve(p);
    SublinearSolver fresh;
    const auto oneshot = fresh.solve(p);
    EXPECT_EQ(reused.cost, oneshot.cost);
    EXPECT_TRUE(reused.w == oneshot.w);
    EXPECT_EQ(reused.iterations, oneshot.iterations);
    EXPECT_EQ(reused.trace.size(), oneshot.trace.size());
  }
}

TEST(Session, LedgerAndCellCountResetBetweenInstances) {
  const std::size_t n = 16;
  const auto problems = random_chains(2, n, 503);
  SublinearOptions counted;
  counted.engine = EngineKind::kReference;
  SolveSession session(SolvePlan::create(n, counted));

  const auto r0 = session.solve(problems[0]);
  const std::size_t cells = session.pw_cell_count();
  const auto work0 = session.machine().costs().total_work();
  const auto steps0 = session.machine().costs().step_count();
  EXPECT_GT(cells, 0u);
  EXPECT_GT(work0, 0u);
  EXPECT_EQ(steps0, 3 * r0.iterations);

  // Same problem again: the ledger must restart from zero, not
  // accumulate, and the allocation is reused (same cell count).
  const auto r1 = session.solve(problems[0]);
  EXPECT_EQ(session.pw_cell_count(), cells);
  EXPECT_EQ(session.machine().costs().total_work(), work0);
  EXPECT_EQ(session.machine().costs().step_count(), 3 * r1.iterations);
  EXPECT_EQ(r1.cost, r0.cost);
  EXPECT_TRUE(r1.w == r0.w);

  // A different instance of the same shape also starts from a clean
  // ledger and the same allocation.
  (void)session.solve(problems[1]);
  EXPECT_EQ(session.pw_cell_count(), cells);
  EXPECT_EQ(session.pw_cell_count(), session.plan().pw_cell_count());
}

TEST(Session, ReuseMatchesAcrossEngineConfigurations) {
  // The in-place reset must be exact for both engines, with and without
  // the windowed schedule (which turns the fast engine's frontier off).
  const std::size_t n = 14;
  const auto problems = random_chains(3, n, 504);
  for (const EngineKind engine : {EngineKind::kReference, EngineKind::kFast}) {
    for (const bool windowed : {false, true}) {
      SublinearOptions options;
      options.engine = engine;
      options.windowed_pebble = windowed;
      if (windowed) options.termination = TerminationMode::kFixedBound;
      SolveSession session(SolvePlan::create(n, options));
      for (const auto& p : problems) {
        const auto reused = session.solve(p);
        SolveSession oneshot(SolvePlan::create(n, options));
        const auto fresh = oneshot.solve(p);
        EXPECT_EQ(reused.cost, fresh.cost);
        EXPECT_TRUE(reused.w == fresh.w);
        EXPECT_EQ(reused.iterations, fresh.iterations);
      }
    }
  }
}

TEST(Solver, FacadeReusesPlanAcrossSameShapeInstances) {
  const std::size_t n = 20;
  const auto problems = random_chains(4, n, 505);
  SublinearSolver solver;
  std::shared_ptr<const SolvePlan> plan;
  for (const auto& p : problems) {
    const auto result = solver.solve(p);
    EXPECT_EQ(result.cost, dp::solve_sequential(p).cost);
    if (plan == nullptr) {
      plan = solver.plan();
      EXPECT_NE(plan, nullptr);
    } else {
      EXPECT_EQ(solver.plan(), plan) << "same-n solve rebuilt the plan";
    }
  }
  // A different shape swaps the plan in.
  support::Rng rng(506);
  const auto other = dp::MatrixChainProblem::random(n + 3, rng);
  (void)solver.solve(other);
  EXPECT_NE(solver.plan(), plan);
  EXPECT_EQ(solver.plan()->n(), n + 3);
}

}  // namespace
}  // namespace subdp::core
