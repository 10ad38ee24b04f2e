#pragma once

/// \file sublinear_solver.hpp
/// The paper's contribution: the sublinear-time CREW PRAM algorithm for
/// recurrence (*), simulated on a multicore host.
///
/// One iteration applies the three parallel macro-steps
/// `a-activate; a-square; a-pebble` (Sec. 2); after `2*ceil(sqrt n)`
/// iterations every `w'(i,j)` equals the optimum `c(i,j)` (Sec. 4, via the
/// pebbling-game argument of Sec. 3). Options select the dense Sec. 2
/// layout or the banded Sec. 5 layout (O(n^3.5/log n) processors), the
/// Sec. 5 windowed pebble schedule, Rytter-style full squaring (the
/// baseline this paper improves on), and the Sec. 7 termination
/// heuristics. With `EngineKind::kReference`, all PRAM work/depth is
/// accounted on an internal `Machine`.
///
/// `SublinearSolver` is the classic one-object facade over the
/// plan/session split (solve_plan.hpp / solve_session.hpp): internally it
/// keys an immutable `SolvePlan` by the instance size and runs a reusable
/// `SolveSession` against it, so solving several same-`n` instances with
/// one solver re-initialises tables in place instead of rebuilding entry
/// lists and reallocating pw storage. Power users hold plans and sessions
/// directly (many sessions per plan, one per worker); batch workloads go
/// through `serve::SolverService` (serve/solver_service.hpp).
///
/// Typical use:
/// ```
/// core::SublinearSolver solver;                 // banded defaults
/// auto result = solver.solve(problem);          // result.cost == c(0,n)
/// auto tree = dp::extract_tree_from_w(problem, result.w);
/// ```
/// The stepping interface (`prepare` / `step` / `current_*` / `finish`)
/// exposes the iteration to tests — in particular the Sec. 4 lock-step
/// comparison against the pebbling game on a known optimal tree. The
/// stepping lifecycle is guarded: `step`, `current_*` and `finish` before
/// `prepare`, or after `finish` without a new `prepare`, fail with a
/// `SUBDP_REQUIRE` diagnostic instead of dereferencing stale state.

#include <memory>

#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "core/solver_types.hpp"
#include "dp/problem.hpp"
#include "pram/machine.hpp"

namespace subdp::core {

/// Reusable solver configured once, usable on many instances.
class SublinearSolver {
 public:
  explicit SublinearSolver(SublinearOptions options = {});

  /// Solves `problem` to completion under the configured termination mode.
  [[nodiscard]] SublinearResult solve(const dp::Problem& problem);

  // -- Stepping interface (tests, traces, co-simulation) -----------------

  /// Initialises state for `problem` (which must outlive the stepping).
  /// Reuses the cached plan and in-place tables when the size matches the
  /// previous instance; otherwise builds a fresh plan for the new shape.
  void prepare(const dp::Problem& problem);

  /// Runs one iteration; requires `prepare` (and no intervening `finish`).
  IterationOutcome step();

  /// Current `w'(i,j)` / `pw'(i,j,p,q)` values.
  [[nodiscard]] Cost current_w(std::size_t i, std::size_t j) const;
  [[nodiscard]] Cost current_pw(std::size_t i, std::size_t j, std::size_t p,
                                std::size_t q) const;

  /// Iterations run since `prepare`.
  [[nodiscard]] std::size_t iterations_done() const;

  /// Packages the current state into a result (cost, w table, traces).
  /// Finishes the stepping cycle: stepping again requires `prepare`.
  [[nodiscard]] SublinearResult finish();

  /// The worst-case iteration schedule for the prepared instance.
  [[nodiscard]] std::size_t iteration_bound() const {
    return plan_ != nullptr ? plan_->iteration_bound() : 0;
  }

  /// Effective band width for the prepared instance.
  [[nodiscard]] std::size_t effective_band() const {
    return plan_ != nullptr ? plan_->effective_band() : 0;
  }

  /// Number of allocated pw cells (memory metric, experiment E7).
  [[nodiscard]] std::size_t pw_cell_count() const;

  /// The plan backing the current shape (null before the first
  /// `prepare`/`solve`); shareable with further sessions.
  [[nodiscard]] std::shared_ptr<const SolvePlan> plan() const noexcept {
    return plan_;
  }

  /// The PRAM simulator carrying the work/depth ledger (charged by the
  /// reference engine only) and (optionally) the CREW conformance checker.
  [[nodiscard]] const pram::Machine& machine() const { return machine_; }
  [[nodiscard]] pram::Machine& machine() { return machine_; }

  [[nodiscard]] const SublinearOptions& options() const { return options_; }

 private:
  /// Builds (or reuses) the plan/session pair serving `problem`'s shape.
  SolveSession& session_for(const dp::Problem& problem);

  SublinearOptions options_;
  pram::Machine machine_;
  std::shared_ptr<const SolvePlan> plan_;
  std::unique_ptr<SolveSession> session_;
};

}  // namespace subdp::core
