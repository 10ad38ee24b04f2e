// Equivalence tests for the two iteration engines (core/engine.hpp): the
// fast engine (write-log stepping, frontier-driven sweeps, cursor pebble
// scans, incremental mark grids) must produce output identical to the
// reference engine (copy-and-swap stepping, full instrumented sweeps) —
// the same w table, cost, iteration count, and per-iteration change
// counts — across every instance family in bench/common.hpp, both
// pw-table layouts, serial, thread-pool and OpenMP execution (each cuts
// the write logs into its own segments), with per-step profiling on or
// off.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/pw_dense.hpp"
#include "core/solve_plan.hpp"
#include "core/solve_session.hpp"
#include "core/sublinear_solver.hpp"
#include "dp/sequential.hpp"
#include "support/rng.hpp"

namespace subdp::core {
namespace {

struct EngineConfig {
  std::string name;
  EngineKind engine = EngineKind::kFast;
  pram::Backend backend = pram::Backend::kSerial;
  // Per-step engine profiling: on or off, the solver output must be
  // bit-identical — profiling only ever records.
  bool profile = false;
};

SublinearResult run_config(const dp::Problem& problem,
                           const EngineConfig& config, PwVariant variant,
                           std::size_t band_width = 0) {
  SublinearOptions options;
  options.variant = variant;
  options.band_width = band_width;
  options.engine = config.engine;
  options.profile = config.profile;
  options.machine.backend = config.backend;
  SublinearSolver solver(options);
  return solver.solve(problem);
}

void expect_identical(const SublinearResult& ref, const SublinearResult& got,
                      const std::string& label) {
  EXPECT_EQ(ref.cost, got.cost) << label;
  EXPECT_EQ(ref.iterations, got.iterations) << label;
  EXPECT_TRUE(ref.w == got.w) << label << ": w tables differ";
  ASSERT_EQ(ref.trace.size(), got.trace.size()) << label;
  for (std::size_t t = 0; t < ref.trace.size(); ++t) {
    EXPECT_EQ(ref.trace[t].pw_cells_changed, got.trace[t].pw_cells_changed)
        << label << " iteration " << t + 1;
    EXPECT_EQ(ref.trace[t].w_cells_changed, got.trace[t].w_cells_changed)
        << label << " iteration " << t + 1;
  }
}

EngineConfig reference_config() {
  return {"reference,serial", EngineKind::kReference, pram::Backend::kSerial};
}

// The fast engine in five setups, plus the reference engine on threads.
std::vector<EngineConfig> variant_configs() {
  return {
      {"fast,serial", EngineKind::kFast, pram::Backend::kSerial},
      {"fast,threads", EngineKind::kFast, pram::Backend::kThreadPool},
      {"fast,openmp", EngineKind::kFast, pram::Backend::kOpenMP},
      {"fast,serial,profiled", EngineKind::kFast, pram::Backend::kSerial,
       true},
      {"fast,threads,profiled", EngineKind::kFast, pram::Backend::kThreadPool,
       true},
      {"reference,threads", EngineKind::kReference,
       pram::Backend::kThreadPool},
  };
}

// Sizes and bands beyond the main one reach the edges of the fast
// engine's root-panel a-square kernel, whose panel side is min(B, L-1)+1:
// bands 1 and 3 clamp it at B, and n = 2, 3, 5 at L-1 on every root,
// where some targets' only window operand is the skipped identity
// pw(i,j,i,j).
struct SizedInput {
  std::size_t n = 0;
  std::size_t band_width = 0;  ///< 0 = the default 2*ceil(sqrt n).
};

TEST(FastPath, AllConfigurationsAgreeOnEveryFamilyBanded) {
  for (const SizedInput in : {SizedInput{33, 0}, SizedInput{33, 1},
                              SizedInput{33, 3}, SizedInput{2, 0},
                              SizedInput{3, 0}, SizedInput{5, 0}}) {
    for (const std::string& family : bench::instance_families()) {
      support::Rng rng(2024);
      const auto problem = bench::make_instance(family, in.n, rng);
      const std::string label = family + " n=" + std::to_string(in.n) +
                                " band=" + std::to_string(in.band_width);
      const auto ref = run_config(*problem, reference_config(),
                                  PwVariant::kBanded, in.band_width);
      // Only the paper's band guarantees the optimum within the schedule
      // (a narrower one can stop short; see the band-sensitivity tests),
      // but the engines must agree at every band.
      if (in.band_width == 0) {
        EXPECT_EQ(ref.cost, dp::solve_sequential(*problem).cost) << label;
      }
      for (const EngineConfig& config : variant_configs()) {
        const auto got =
            run_config(*problem, config, PwVariant::kBanded, in.band_width);
        expect_identical(ref, got, label + " / " + config.name);
      }
    }
  }
}

TEST(FastPath, AllConfigurationsAgreeOnEveryFamilyDense) {
  for (const std::size_t n : {18, 2, 3, 5}) {
    for (const std::string& family : bench::instance_families()) {
      support::Rng rng(77);
      const auto problem = bench::make_instance(family, n, rng);
      const std::string label = family + " n=" + std::to_string(n);
      const auto ref =
          run_config(*problem, reference_config(), PwVariant::kDense);
      for (const EngineConfig& config : variant_configs()) {
        const auto got = run_config(*problem, config, PwVariant::kDense);
        expect_identical(ref, got, label + " / " + config.name);
      }
    }
  }
}

TEST(FastPath, ThreadsMatchReferenceAtBandedN96) {
  // Large enough that the square steps log thousands of improvements,
  // so the segmented logs and the parallel apply run over many
  // non-empty segments on a multicore host.
  support::Rng rng(9696);
  const auto problem = bench::make_instance("matrix-chain", 96, rng);
  const auto ref =
      run_config(*problem, reference_config(), PwVariant::kBanded);
  EXPECT_EQ(ref.cost, dp::solve_sequential(*problem).cost);

  SublinearOptions options;
  options.profile = true;
  options.machine.backend = pram::Backend::kThreadPool;
  const auto plan = SolvePlan::create(problem->size(), options);
  SolveSession session(plan);
  const auto got = session.solve(*problem);
  expect_identical(ref, got, "matrix-chain n=96 / fast,threads");
  std::uint64_t most_logged = 0;
  for (const StepProfile& p : session.step_profile()) {
    most_logged = std::max(most_logged, p.pw_log_entries);
  }
  EXPECT_GE(most_logged, 1000u);
}

TEST(FastPath, PwTablesMatchCellByCell) {
  // Beyond the w table: step both engines side by side and compare every
  // stored pw entry after each iteration.
  support::Rng rng(99);
  const std::size_t n = 20;
  const auto problem = bench::make_instance("matrix-chain", n, rng);

  SublinearOptions ref_options;
  ref_options.engine = EngineKind::kReference;
  SublinearOptions fast_options;

  SublinearSolver ref(ref_options);
  SublinearSolver fast(fast_options);
  ref.prepare(*problem);
  fast.prepare(*problem);
  ASSERT_EQ(ref.effective_band(), fast.effective_band());
  const std::size_t band = ref.effective_band();

  for (std::size_t iter = 0; iter < ref.iteration_bound(); ++iter) {
    (void)ref.step();
    (void)fast.step();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 2; j <= n; ++j) {
        for (std::size_t p = i; p < j; ++p) {
          for (std::size_t q = p + 1; q <= j; ++q) {
            if (p == i && q == j) continue;
            const bool stored =
                (j - i) - (q - p) <= band || p == i || q == j;
            if (!stored) continue;
            ASSERT_EQ(ref.current_pw(i, j, p, q), fast.current_pw(i, j, p, q))
                << "iteration " << iter + 1 << " pw(" << i << "," << j << ","
                << p << "," << q << ")";
          }
        }
      }
    }
  }
}

TEST(FastPath, ReferenceEngineIsCrewConformantOnThreads) {
  // The reference engine's double-buffered steps, run on the thread
  // pool, must report exactly one write per improved cell and no
  // conflicts.
  support::Rng rng(13);
  const auto problem = bench::make_instance("triangulation", 21, rng);
  SublinearOptions options;
  options.engine = EngineKind::kReference;
  options.machine.check_crew = true;
  options.machine.backend = pram::Backend::kThreadPool;
  SublinearSolver solver(options);
  const auto result = solver.solve(*problem);
  EXPECT_EQ(result.cost, dp::solve_sequential(*problem).cost);
  ASSERT_NE(solver.machine().crew(), nullptr);
  EXPECT_EQ(solver.machine().crew()->violation_count(), 0u)
      << solver.machine().crew()->first_violation();
}

TEST(FastPath, CrewCheckingRequiresTheReferenceEngine) {
  // The fast engine reports no writes, so a CREW check on it would pass
  // vacuously; plan creation refuses the combination instead.
  SublinearOptions options;
  options.machine.check_crew = true;
  EXPECT_THROW((void)SolvePlan::create(12, options), std::invalid_argument);
  options.engine = EngineKind::kReference;
  EXPECT_NE(SolvePlan::create(12, options), nullptr);
}

TEST(FastPath, WindowedPebbleMatchesReferenceEngine) {
  // The windowed schedule disables frontier sweeps internally; the
  // fast engine's write-log stepping must still match the reference.
  support::Rng rng(55);
  const auto problem = bench::make_instance("zigzag", 30, rng);
  SublinearOptions base;
  base.windowed_pebble = true;
  base.termination = TerminationMode::kFixedBound;

  SublinearOptions ref_options = base;
  ref_options.engine = EngineKind::kReference;
  SublinearOptions fast_options = base;

  SublinearSolver ref(ref_options);
  SublinearSolver fast(fast_options);
  const auto a = ref.solve(*problem);
  const auto b = fast.solve(*problem);
  expect_identical(a, b, "windowed");
}

// ---- Cross-layout equivalence ----------------------------------------------
// The storage-policy refactor must leave semantics untouched: layouts that
// store the same entry set are bit-identical in every observable, and all
// layouts agree on the converged tables.

TEST(CrossLayout, DenseAndWideBandAgreeBitForBitOnEveryFamily) {
  // The entries-indexed dense layout and a banded table with band = n
  // store exactly the same entry set (only the addressing differs), so
  // costs, w tables, iteration schedules and per-iteration change counts
  // must match bit for bit — reference and fast engines alike.
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(4242);
    const std::size_t n = 21;
    const auto problem = bench::make_instance(family, n, rng);

    const auto ref =
        run_config(*problem, reference_config(), PwVariant::kDense);
    EXPECT_EQ(ref.cost, dp::solve_sequential(*problem).cost) << family;

    const auto dense_fast = run_config(*problem, {"dense,fast"},
                                       PwVariant::kDense);
    expect_identical(ref, dense_fast, family + " / dense fast");

    for (const EngineKind engine :
         {EngineKind::kReference, EngineKind::kFast}) {
      SublinearOptions options;
      options.variant = PwVariant::kBanded;
      options.band_width = n;  // wide band: stores every slack, like dense
      options.engine = engine;
      SublinearSolver solver(options);
      const auto got = solver.solve(*problem);
      expect_identical(ref, got,
                       family + " / wide-band " + to_string(engine));
    }
  }
}

TEST(CrossLayout, DenseAndBandedConvergeToTheSameTables) {
  // Different stored sets (Sec. 2 vs Sec. 5) take different iteration
  // paths, but both fixed points are the full optimum: final w tables and
  // costs agree with each other and with sequential DP.
  for (const std::string& family : bench::instance_families()) {
    support::Rng rng(911);
    const auto problem = bench::make_instance(family, 26, rng);
    SublinearOptions dense_opts;
    dense_opts.variant = PwVariant::kDense;
    SublinearSolver dense_solver(dense_opts);
    const auto dense = dense_solver.solve(*problem);

    SublinearOptions banded_opts;
    banded_opts.variant = PwVariant::kBanded;
    SublinearSolver banded_solver(banded_opts);
    const auto banded = banded_solver.solve(*problem);

    EXPECT_EQ(dense.cost, dp::solve_sequential(*problem).cost) << family;
    EXPECT_EQ(dense.cost, banded.cost) << family;
    EXPECT_TRUE(dense.w == banded.w) << family << ": w tables differ";
  }
}

TEST(CrossLayout, DensePastTheOldCubeCapSolvesCorrectly) {
  // n = 80 would have needed a 330-MB (n+1)^4 cube (rejected at 64); the
  // entries-indexed layout handles it in ~14 MB and still matches
  // sequential DP and the banded layout.
  support::Rng rng(8080);
  const std::size_t n = 80;
  const auto problem = bench::make_instance("matrix-chain", n, rng);
  SublinearOptions dense_opts;
  dense_opts.variant = PwVariant::kDense;
  SublinearSolver dense_solver(dense_opts);
  const auto dense = dense_solver.solve(*problem);
  EXPECT_EQ(dense.cost, dp::solve_sequential(*problem).cost);

  SublinearOptions banded_opts;
  SublinearSolver banded_solver(banded_opts);
  const auto banded = banded_solver.solve(*problem);
  EXPECT_EQ(dense.cost, banded.cost);
  EXPECT_TRUE(dense.w == banded.w);
}

TEST(CrossLayout, PrepareEnforcesTheNewDenseLimit) {
  class SizedProblem final : public dp::Problem {
   public:
    explicit SizedProblem(std::size_t n) : n_(n) {}
    [[nodiscard]] std::size_t size() const override { return n_; }
    [[nodiscard]] Cost init(std::size_t) const override { return 0; }
    [[nodiscard]] Cost f(std::size_t, std::size_t, std::size_t) const
        override {
      return 0;
    }
    [[nodiscard]] std::string name() const override { return "sized"; }

   private:
    std::size_t n_;
  };

  SublinearOptions dense_opts;
  dense_opts.variant = PwVariant::kDense;
  SublinearSolver solver(dense_opts);

  // Rejected up front (before any table allocation).
  const SizedProblem too_big(DensePwTable::kMaxDenseN + 1);
  EXPECT_THROW(solver.prepare(too_big), std::invalid_argument);

  // Accepted well past the old 64 cube cap.
  const SizedProblem past_old_cap(80);
  solver.prepare(past_old_cap);
  EXPECT_GT(solver.pw_cell_count(), 0u);
}

// ---- Step profiles (observability) -----------------------------------------
// `SublinearOptions::profile` records one StepProfile per iteration. The
// bit-identical guarantee is covered by the profiled configs above; here
// the counters themselves must reconcile: every quad and pair the sweep
// owns is either scanned or accounted to a skip, exactly once.

TEST(StepProfiles, CountersReconcilePerStepOnEveryFamily) {
  for (const std::string& family : bench::instance_families()) {
    for (const PwVariant variant : {PwVariant::kBanded, PwVariant::kDense}) {
      support::Rng rng(606);
      const auto problem = bench::make_instance(family, 24, rng);
      SublinearOptions options;
      options.variant = variant;
      options.profile = true;  // the default fast engine's sweeps
      const auto plan = SolvePlan::create(problem->size(), options);
      SolveSession session(plan);
      const auto result = session.solve(*problem);
      EXPECT_EQ(result.cost, dp::solve_sequential(*problem).cost) << family;

      const std::vector<StepProfile>& profiles = session.step_profile();
      ASSERT_EQ(profiles.size(), result.iterations) << family;
      for (std::size_t t = 0; t < profiles.size(); ++t) {
        const StepProfile& p = profiles[t];
        const std::string label = family + " iteration " + std::to_string(t);
        EXPECT_EQ(p.iteration, t + 1) << label;
        EXPECT_EQ(p.square_quads_scanned + p.square_quads_block_skipped,
                  p.square_quads_total)
            << label;
        EXPECT_EQ(p.pebble_pairs_scanned + p.pebble_pairs_skipped,
                  p.pebble_pairs_total)
            << label;
        // Skipping a whole block accounts all of its quads at once.
        if (p.square_blocks_skipped > 0) {
          EXPECT_GT(p.square_quads_block_skipped, 0u) << label;
        }
        // Frontier density accounting is a subset relation.
        EXPECT_LE(p.frontier_sites, p.total_split_sites) << label;
      }
      // The sweeps genuinely ran: some work is attributed somewhere.
      std::uint64_t total_quads = 0;
      std::uint64_t total_pairs = 0;
      for (const StepProfile& p : profiles) {
        total_quads += p.square_quads_total;
        total_pairs += p.pebble_pairs_total;
      }
      EXPECT_GT(total_quads, 0u) << family;
      EXPECT_GT(total_pairs, 0u) << family;
    }
  }
}

TEST(StepProfiles, PhaseTimesAreFilledAndLeaveResultsUntouched) {
  support::Rng rng(609);
  const auto problem = bench::make_instance("zigzag", 40, rng);
  SublinearOptions options;
  options.machine.backend = pram::Backend::kThreadPool;
  const auto plain_plan = SolvePlan::create(problem->size(), options);
  SolveSession plain(plain_plan);
  const auto unprofiled = plain.solve(*problem);
  EXPECT_TRUE(plain.step_profile().empty());

  options.profile = true;
  const auto profiled_plan = SolvePlan::create(problem->size(), options);
  SolveSession session(profiled_plan);
  const auto profiled = session.solve(*problem);
  expect_identical(unprofiled, profiled, "profiled vs unprofiled");

  StepProfile total;
  for (const StepProfile& p : session.step_profile()) {
    total.activate_ns += p.activate_ns;
    total.mark_update_ns += p.mark_update_ns;
    total.square_sweep_ns += p.square_sweep_ns;
    total.square_apply_ns += p.square_apply_ns;
    total.pebble_sweep_ns += p.pebble_sweep_ns;
    total.pebble_apply_ns += p.pebble_apply_ns;
  }
  EXPECT_GT(total.activate_ns, 0u);
  EXPECT_GT(total.mark_update_ns, 0u);
  EXPECT_GT(total.square_sweep_ns, 0u);
  EXPECT_GT(total.square_apply_ns, 0u);
  EXPECT_GT(total.pebble_sweep_ns, 0u);
  EXPECT_GT(total.pebble_apply_ns, 0u);
}

TEST(StepProfiles, EmptyWhenProfilingIsOff) {
  support::Rng rng(607);
  const auto problem = bench::make_instance("matrix-chain", 18, rng);
  SublinearOptions options;  // profile defaults to false
  const auto plan = SolvePlan::create(problem->size(), options);
  SolveSession session(plan);
  const auto result = session.solve(*problem);
  EXPECT_EQ(result.cost, dp::solve_sequential(*problem).cost);
  EXPECT_TRUE(session.step_profile().empty());
}

TEST(StepProfiles, SurvivesSessionResetAndRepeatedSolves) {
  // A pooled session is reset across jobs; each solve's profile must
  // describe that solve alone, not accumulate across resets.
  support::Rng rng(608);
  const auto a = bench::make_instance("matrix-chain", 20, rng);
  const auto b = bench::make_instance("optimal-bst", 20, rng);
  SublinearOptions options;
  options.profile = true;
  const auto plan = SolvePlan::create(20, options);
  SolveSession session(plan);
  const auto ra = session.solve(*a);
  EXPECT_EQ(session.step_profile().size(), ra.iterations);
  const auto rb = session.solve(*b);
  EXPECT_EQ(session.step_profile().size(), rb.iterations);
}

TEST(FastPath, OversizedInstancesAreRejectedUpFront) {
  // Satellite of the same PR: pair/quad packing must not silently
  // truncate huge n. The solver rejects past the packed-coordinate cap.
  class HugeProblem final : public dp::Problem {
   public:
    [[nodiscard]] std::size_t size() const override { return 70000; }
    [[nodiscard]] Cost init(std::size_t) const override { return 0; }
    [[nodiscard]] Cost f(std::size_t, std::size_t, std::size_t) const
        override {
      return 0;
    }
    [[nodiscard]] std::string name() const override { return "huge"; }
  };
  SublinearSolver solver;
  const HugeProblem huge;
  EXPECT_THROW(solver.prepare(huge), std::invalid_argument);
}

}  // namespace
}  // namespace subdp::core
