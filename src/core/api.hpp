#pragma once

/// \file api.hpp
/// Top-level convenience API over the plan/session architecture.
///
/// Three tiers, lowest friction first:
///  * `solve(problem, options)` — one instance in, assembled `Solution`
///    out (cost, optimal tree, iteration and PRAM statistics). Builds a
///    throwaway plan+session pair; what the examples use.
///  * `serve::SolverService` (serve/solver_service.hpp) — many instances
///    in, per-instance results out: a bounded LRU plan cache keyed by
///    `(n, options)`, per-plan session pools reset in place, and worker
///    threads overlapping independent instances, with a blocking
///    `solve_all` and an async `submit -> std::future`.
///  * `SolvePlan` / `SolveSession` (solve_plan.hpp / solve_session.hpp) —
///    explicit prepare-once/solve-many: share one immutable plan across
///    worker sessions, step, trace, or CREW-check each solve. What
///    `SublinearSolver` and the tiers above are built from.
///
/// `solve_rytter` runs the Rytter-style full-squaring baseline of [8]
/// through the same plan/session machinery; its options must select
/// `SquareMode::kRytterFull` (see `rytter_options()` for the defaults).

#include "core/solver_types.hpp"
#include "core/sublinear_solver.hpp"
#include "dp/problem.hpp"
#include "dp/tables.hpp"
#include "trees/full_binary_tree.hpp"

namespace subdp::core {

/// A fully assembled answer for one instance.
struct Solution {
  Cost cost = kInfinity;               ///< `c(0, n)`.
  trees::FullBinaryTree tree;          ///< An optimal decomposition tree.
  std::size_t iterations = 0;          ///< Iterations the solver ran.
  std::size_t iteration_bound = 0;     ///< The `2*ceil(sqrt n)` schedule.
  bool reached_fixed_point = false;
  /// Total PRAM operations and parallel time; 0 unless
  /// `engine == EngineKind::kReference`.
  std::uint64_t pram_work = 0;
  std::uint64_t pram_depth = 0;
};

/// Solves `problem` with the paper's algorithm (banded layout, fixed-point
/// termination by default) and extracts an optimal tree.
[[nodiscard]] Solution solve(const dp::Problem& problem,
                             const SublinearOptions& options = {});

/// The canonical options for the Rytter baseline: dense layout, full
/// squaring, fixed-point termination (O(log n) iterations), default
/// backend.
[[nodiscard]] SublinearOptions rytter_options();

/// Solves with Rytter-style full squaring (the baseline of [8]); O(n^6)
/// work per square, so small n only. `options` must keep
/// `SquareMode::kRytterFull` (start from `rytter_options()` to adjust the
/// backend, termination or iteration cap); routed through the same
/// plan/session machinery as every other solve.
[[nodiscard]] SublinearResult solve_rytter(
    const dp::Problem& problem,
    const SublinearOptions& options = rytter_options());

}  // namespace subdp::core
