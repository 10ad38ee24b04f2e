#pragma once

/// \file engine.hpp
/// The iteration engine behind `SublinearSolver` (implementation detail).
///
/// Template on the partial-weight table type so dense (Sec. 2) and banded
/// (Sec. 5) variants share one implementation of the three macro-steps:
///
///   a-activate (eq. 1a/1b):
///     pw'(i,j,i,k) <- min(pw'(i,j,i,k), f(i,k,j) + w'(k,j))
///     pw'(i,j,k,j) <- min(pw'(i,j,k,j), f(i,k,j) + w'(i,k))
///   a-square (eq. 2c, HLV mode):
///     pw'(i,j,p,q) <- min over r in [max(i, p-B), p):
///                        pw'(i,j,r,q) + pw'(r,q,p,q)
///                     and over s in (q, min(j, q+B)]:
///                        pw'(i,j,p,s) + pw'(p,s,p,q)
///     (Rytter mode: min over all intermediate gaps (r,s) ⊇ (p,q))
///   a-pebble (eq. 3):
///     w'(i,j) <- min over stored gaps (p,q): pw'(i,j,p,q) + w'(p,q)
///
/// Two engines: `SublinearOptions::engine`
/// ---------------------------------------
/// a-square and a-pebble both read and write the same array, so every read
/// within a step must observe the *previous* step's state regardless of
/// execution backend. The two `EngineKind`s keep that rule differently:
///  * `kReference` double-buffers: each step copies the table, writes the
///    copy and swaps. Every macro-step is a full sweep through
///    `Machine::step` (`std::function` body) with per-processor op counts
///    and `note_write` conformance reports — exactly the paper's
///    accounting. It is the only engine that charges the PRAM ledger and
///    accepts `check_crew`, and the oracle the equivalence tests compare
///    the fast engine against.
///  * `kFast` (the default) records a write log of `(cell, new value)`
///    pairs while scanning and applies it only after the step's barrier:
///    reads during the step see pre-step state by construction, and since
///    each cell is written by exactly one logical processor per step
///    (owner-computes, CREW), the apply order is immaterial. The log
///    doubles as the change count and — for a-pebble — as the next
///    iteration's frontier. Steps run through `Machine::run_blocks`
///    (templated body) with the per-cell kernels instantiated with
///    `Instr = false`, so op counting and `note_write` compile down to
///    nothing and the kernel inlines into the worker loop.
/// a-activate writes cells nobody reads within the step and updates in
/// place on both engines.
///
/// Contention-free fast steps
/// --------------------------
/// Like the paper's CREW steps, no fast-engine processor waits on another
/// inside a step:
///  * the sweep range is cut into fixed *segments* (`WriteLog`: one when
///    the backend runs on a single host thread, eight per host thread
///    otherwise). A segment owns its index range of the sweep *and* the
///    same range of the log, which it fills from the front and closes by
///    storing its entry count — no shared counter is touched per cell or
///    per segment, and the log is the one slot-per-index array it always
///    was;
///  * the a-square sweep cuts its segments on root-block boundaries, so
///    every root is computed by one segment. Its apply runs over the
///    segments through `run_blocks`; each segment's entries ascend, so the
///    quads of one root form a run and the root is marked once per run.
///    The a-pebble log holds at most one entry per pair and becomes the
///    next frontier in order, so it is applied serially on the issuing
///    thread;
///  * root marks read before they write (`mark_root_dirty`): a flag that
///    is already set costs a shared load, never a store or an RMW.
///
/// Performance architecture
/// ------------------------
/// On the fast engine the sweeps are additionally *frontier-driven*
/// (except under the windowed pebble schedule, which runs full sweeps):
///  * a-activate re-evaluates only the sites reading a `w(i,j)` the last
///    pebble moved (falling back to the full sweep when that frontier is
///    dense);
///  * a-square (HLV mode) runs *root-major*: the entry list is walked as
///    contiguous per-root blocks, and a 2-D containment count over the
///    moved roots answers "did any pw entry inside `(i,j)` move?" in O(1)
///    and skips the whole block when not. A block that survives is
///    computed whole by the root-panel kernel (`square_root_panel`, see
///    below);
///  * a-pebble skips pairs with no root `pw` movement since their last
///    rescan and no moved `w` among their gaps; pairs that do rescan
///    stream their stored gaps as the layout's arithmetic-progression
///    `PwGapRun`s (`pebble_scan_fast`) instead of dereferencing the
///    general `get` per gap;
///  * the containment grids behind both skip tests are rebuilt from
///    scratch, once per step that needs them, on the thread that runs
///    `iterate()`: the marks (the last pebble's frontier, the moved-roots
///    list) are written as 1s into a zeroed count grid, which two
///    unit-stride prefix passes turn into containment counts in place.
///    A grid has at most `(n+1)^2` cells, too few to repay a dispatch
///    to the pool.
/// Monotonicity of both tables makes every skipped site provably a no-op
/// (its candidates are unchanged and were already min-applied), so
/// results, change counts and iteration schedules are identical to full
/// sweeps — the equivalence tests verify this per iteration.
///
/// Storage policy and the in-band read path
/// ----------------------------------------
/// `Table` must model `core::PwStoragePolicy` (pw_layout.hpp): the kernels
/// below are instantiated once per layout with that layout's addressing
/// inlined, not dispatched per call. On the fast engine the HLV square
/// runs one kernel per root, `square_root_panel`. It turns eq. 2c's pull
/// loops inside out: instead of each target `(p,q)` re-reading its whole
/// window, the kernel walks the root's first operands once, tests each
/// for finiteness once, and min-folds every finite one's candidates into
/// a `(min(B, L-1) + 1)^2` panel of the root's targets (one panel per
/// host thread, allocated once). Infinite first operands — most of them
/// in early iterations — now cost one test per root instead of one per
/// target. It rests on a structural fact: every candidate operand of an
/// in-band target is itself in band (first operands share the target's
/// root with strictly smaller slack; second operands `(r,q,p,q)` /
/// `(p,s,p,q)` have slack `p-r` / `s-q <= B` by the window bounds),
/// except the single identity operand `pw(i,j,i,j)`, whose candidate
/// equals the target's old value and is skipped as a provable no-op. So
/// first operands and the second-operand streams `pw(r,q,r+1..,q)` /
/// `pw(p,s,p,..s-1)` are read through the layout's incremental window
/// cursors instead of the general `get`, with no identity / slack /
/// child-gap branch per read. The candidate set and the min-fold are
/// those of the reference `square_scan`, and the folded values are equal
/// (see `square_root_panel`), so the result is bit-identical. The
/// a-pebble gap scan gets the same treatment through `for_each_gap_run`:
/// the layout emits every stored gap of a root as arithmetic-progression
/// runs over raw `pw` slots paired with strided `w` slots (`PwGapRun`),
/// so `pebble_scan_fast` is a pointer walk with no per-read addressing
/// branches. The reference engine reads every operand through `get` /
/// `for_each_gap`.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pw_layout.hpp"
#include "core/quad.hpp"
#include "core/solver_types.hpp"
#include "dp/problem.hpp"
#include "pram/machine.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace subdp::core::detail {

/// Distinguishes pw-table addresses from w-table addresses in CREW checks.
inline constexpr std::uint64_t kWAddressTag = std::uint64_t{1} << 62;

/// Abstract stepping interface so the public solver can hold either
/// table variant behind one pointer.
class IEngine {
 public:
  virtual ~IEngine() = default;
  virtual IterationOutcome iterate() = 0;
  /// Re-initialises every per-instance table and counter in place for a
  /// new problem of the same shape — no reallocation, no geometry rebuild
  /// (the `SolveSession::reset` hot path).
  virtual void reset(const dp::Problem& problem) = 0;
  [[nodiscard]] virtual std::size_t iterations_done() const = 0;
  [[nodiscard]] virtual Cost w_value(std::size_t i, std::size_t j) const = 0;
  [[nodiscard]] virtual Cost pw_value(std::size_t i, std::size_t j,
                                      std::size_t p, std::size_t q) const = 0;
  [[nodiscard]] virtual const support::Grid2D<Cost>& w_table() const = 0;
  [[nodiscard]] virtual std::uint64_t w_finite_count() const = 0;
  [[nodiscard]] virtual std::size_t pw_cell_count() const = 0;
  /// One StepProfile per completed iteration when
  /// `SublinearOptions::profile` is on; empty otherwise.
  [[nodiscard]] virtual const std::vector<StepProfile>& step_profiles()
      const = 0;
};

/// One pair `(i,j)` of the pebble/activate sweeps. 32-bit fields: unlike
/// the packed `Quad` (whose tables cap `n` anyway), pair lists are cheap
/// enough to exist for `n` far beyond 65535, so they must not truncate.
struct Pair {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
};

/// One root's contiguous run `[begin, end)` of the square-entry list,
/// plus the root's index into the pair list (root-major sweep unit).
struct RootBlock {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t pair = 0;
};

/// Everything the engine precomputes that depends only on the *shape*
/// `(n, band, options)` — never on a concrete instance's costs: the shared
/// storage layout, the length-major pair list and its offsets, the write-
/// log slot of every square entry, the root-block runs of the root-major
/// sweep, and the activate-site total the frontier density test compares
/// against. A `SolvePlan` builds one `EngineShape` per pw layout and every
/// engine (session) of that shape shares it, so per-instance preparation
/// is a table fill instead of an O(n^2 B^2) rebuild.
template <class Table>
struct EngineShape {
  static_assert(PwStoragePolicy<Table>,
                "EngineShape requires a pw storage policy");

  std::shared_ptr<const typename Table::Layout> layout;
  std::size_t n = 0;
  std::size_t band = 0;
  /// Pairs with length >= 2, grouped by length ascending.
  ShapeArray<Pair> pairs;
  /// Prefix offsets addressing a window of lengths in `pairs`.
  ShapeArray<std::size_t> pairs_offset_by_length;
  /// Storage slot per square entry (fast-engine write-log apply).
  ShapeArray<std::uint32_t> entry_slots;
  /// Per-root runs of the entry list (root-major square sweep).
  ShapeArray<RootBlock> root_blocks;
  /// Total (pair, split) activate sites — the frontier density cutoff.
  std::uint64_t total_split_sites = 0;

  /// Index of pair `(i,j)` in `pairs` (groups are length-major, then `i`).
  [[nodiscard]] std::size_t pair_index(std::size_t i, std::size_t j) const {
    return pairs_offset_by_length[j - i] + i;
  }

  [[nodiscard]] static std::shared_ptr<const EngineShape> build(
      std::size_t n, std::size_t band, const SublinearOptions& options) {
    auto shape = std::make_shared<EngineShape>();
    shape->layout = Table::make_layout(n, band);
    shape->n = n;
    shape->band = band;

    std::vector<Pair> pairs;
    std::vector<std::size_t> pairs_offset_by_length(n + 2, 0);
    for (std::size_t len = 2; len <= n; ++len) {
      pairs_offset_by_length[len] = pairs.size();
      for (std::size_t i = 0; i + len <= n; ++i) {
        pairs.push_back(Pair{static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(i + len)});
      }
    }
    pairs_offset_by_length[n + 1] = pairs.size();
    // Lengths below 2 alias the first real group.
    pairs_offset_by_length[0] = 0;
    pairs_offset_by_length[1] = 0;

    for (const Pair pr : pairs) {
      shape->total_split_sites += pr.j - pr.i - 1;
    }

    const auto& quads = shape->layout->entries();
    std::vector<std::uint32_t> entry_slots;
    std::vector<RootBlock> blocks;
    if (options.engine == EngineKind::kFast) {
      SUBDP_REQUIRE(shape->layout->cell_count() <= UINT32_MAX,
                    "pw table too large for 32-bit write-log slots");
      entry_slots.reserve(quads.size());
      for (const Quad& t : quads) {
        entry_slots.push_back(static_cast<std::uint32_t>(
            shape->layout->entry_slot(t.i, t.j, t.p, t.q)));
      }
      // Per-root runs of the entry list (both layouts emit the quads of a
      // root contiguously) — the unit of the root-major square sweep.
      for (std::size_t idx = 0; idx < quads.size(); ++idx) {
        const Quad& t = quads[idx];
        if (blocks.empty() ||
            pairs[blocks.back().pair].i != t.i ||
            pairs[blocks.back().pair].j != t.j) {
          if (!blocks.empty()) {
            blocks.back().end = static_cast<std::uint32_t>(idx);
          }
          blocks.push_back(RootBlock{
              static_cast<std::uint32_t>(idx), 0,
              static_cast<std::uint32_t>(pairs_offset_by_length[t.j - t.i] +
                                         t.i)});
        }
      }
      if (!blocks.empty()) {
        blocks.back().end = static_cast<std::uint32_t>(quads.size());
      }
    }
    shape->pairs = std::move(pairs);
    shape->pairs_offset_by_length = std::move(pairs_offset_by_length);
    shape->entry_slots = std::move(entry_slots);
    shape->root_blocks = std::move(blocks);
    return shape;
  }

  /// Rehydrates a shape around snapshot-backed arrays (the mmap load path;
  /// see snapshot/plan_snapshot.hpp). Array *contents* are vouched for by
  /// the snapshot checksum; this factory re-derives everything cheap — the
  /// O(n) pair offsets and the split-site total — verifies it against the
  /// stored copy, and checks every array count against what `build` would
  /// produce, throwing on any disagreement so a corrupt file can never
  /// yield a structurally inconsistent shape.
  [[nodiscard]] static std::shared_ptr<const EngineShape> restore(
      std::shared_ptr<const typename Table::Layout> layout, std::size_t n,
      std::size_t band, const SublinearOptions& options,
      ShapeArray<Pair> pairs, ShapeArray<std::size_t> pairs_offset_by_length,
      ShapeArray<std::uint32_t> entry_slots, ShapeArray<RootBlock> root_blocks,
      std::uint64_t total_split_sites) {
    auto shape = std::make_shared<EngineShape>();
    shape->layout = std::move(layout);
    shape->n = n;
    shape->band = band;

    SUBDP_REQUIRE(pairs.size() == (n >= 2 ? n * (n - 1) / 2 : 0),
                  "snapshot pair count disagrees with n");
    SUBDP_REQUIRE(pairs_offset_by_length.size() == n + 2,
                  "snapshot pair-offset count disagrees with n");
    std::size_t at = 0;
    std::uint64_t split_sites = 0;
    for (std::size_t len = 2; len <= n; ++len) {
      SUBDP_REQUIRE(pairs_offset_by_length[len] == at,
                    "snapshot pair offsets disagree with n");
      at += n - len + 1;
      split_sites += static_cast<std::uint64_t>(n - len + 1) * (len - 1);
    }
    SUBDP_REQUIRE(pairs_offset_by_length[n + 1] == at &&
                      pairs_offset_by_length[0] == 0 &&
                      pairs_offset_by_length[1] == 0,
                  "snapshot pair offsets disagree with n");
    SUBDP_REQUIRE(total_split_sites == split_sites,
                  "snapshot split-site total disagrees with n");

    const std::size_t quad_count = shape->layout->entries().size();
    if (options.engine == EngineKind::kFast) {
      SUBDP_REQUIRE(shape->layout->cell_count() <= UINT32_MAX,
                    "pw table too large for 32-bit write-log slots");
      SUBDP_REQUIRE(entry_slots.size() == quad_count,
                    "snapshot entry-slot count disagrees with the layout");
      // Both layouts give every root of length >= 2 at least one quad, so
      // the per-root runs must be one block per pair and end at the list.
      SUBDP_REQUIRE(root_blocks.size() == (quad_count > 0 ? pairs.size() : 0),
                    "snapshot root-block count disagrees with the pair list");
      SUBDP_REQUIRE(root_blocks.empty() ||
                        (root_blocks.front().begin == 0 &&
                         root_blocks.back().end == quad_count),
                    "snapshot root-block runs do not cover the entry list");
    } else {
      SUBDP_REQUIRE(entry_slots.empty() && root_blocks.empty(),
                    "snapshot carries write-log arrays the reference "
                    "engine does not use");
    }

    shape->pairs = std::move(pairs);
    shape->pairs_offset_by_length = std::move(pairs_offset_by_length);
    shape->entry_slots = std::move(entry_slots);
    shape->root_blocks = std::move(root_blocks);
    shape->total_split_sites = total_split_sites;
    return shape;
  }
};

template <class Table>
class Engine final : public IEngine {
  static_assert(PwStoragePolicy<Table>,
                "Engine requires a pw storage policy (see pw_layout.hpp)");

 public:
  Engine(std::shared_ptr<const EngineShape<Table>> shape,
         const dp::Problem& problem, const SublinearOptions& options,
         pram::Machine& machine)
      : shape_(std::move(shape)),
        problem_(&problem),
        options_(options),
        machine_(machine),
        n_(shape_->n),
        fast_(options.engine == EngineKind::kFast),
        pw_(shape_->layout),
        w_(n_ + 1, n_ + 1, kInfinity),
        pairs_(shape_->pairs),
        pairs_offset_by_length_(shape_->pairs_offset_by_length),
        entry_slots_(shape_->entry_slots),
        root_blocks_(shape_->root_blocks),
        total_split_sites_(shape_->total_split_sites) {
    SUBDP_ASSERT(problem.size() == n_);
    if (fast_) {
      const unsigned threads = pram::backend_parallelism(machine_.backend());
      const std::size_t segments =
          threads > 1 ? std::size_t{kSegmentsPerThread} * threads : 1;
      pw_log_.allocate(pw_.entries().size(), segments);
      w_log_.allocate(pairs_.size(), segments);
      if (n_ >= 2) {
        const std::size_t side = std::min(pw_.max_slack(), n_ - 1) + 1;
        panel_cells_ = side * side;
      }
    } else {
      pw_next_.emplace(shape_->layout);
    }
    frontier_enabled_ = fast_ && !options_.windowed_pebble;
    profile_ = options_.profile;
    if (frontier_enabled_) {
      // Value-initialised (zeroed) atomic flag arrays.
      root_dirty_ =
          std::make_unique<std::atomic<std::uint8_t>[]>(pairs_.size());
      pw_root_moved_ =
          std::make_unique<std::atomic<std::uint8_t>[]>(pairs_.size());
      const std::size_t grid = (n_ + 1) * (n_ + 1);
      contained_.assign(grid, 0);
      root_contained_.assign(grid, 0);
      frontier_.reserve(n_);
      moved_roots_.resize(pairs_.size());
    }
    bind_instance(problem, /*fresh_tables=*/true);
  }

  /// Rebinds the engine to a new same-shape instance: fills both tables
  /// back to their initial state in place and clears every per-instance
  /// counter and frontier mark. Geometry (layout, pair lists, entry
  /// slots, root blocks) is shape-owned and untouched.
  void reset(const dp::Problem& problem) override {
    SUBDP_REQUIRE(problem.size() == n_,
                  "engine reset requires an instance of the plan's size");
    pw_.reset();
    w_.fill(kInfinity);
    bind_instance(problem, /*fresh_tables=*/false);
  }

  IterationOutcome iterate() override {
    ++iteration_;
    if (profile_) begin_profile();
    IterationOutcome out;
    out.activate_changed = run_activate();
    if (profile_ && fast_) lap(&StepProfile::activate_ns);
    out.square_changed = run_square();
    out.pebble_changed = run_pebble();
    if (profile_) end_profile();
    return out;
  }

  [[nodiscard]] std::size_t iterations_done() const override {
    return iteration_;
  }

  [[nodiscard]] Cost w_value(std::size_t i, std::size_t j) const override {
    SUBDP_REQUIRE(i < j && j <= n_, "w index out of range");
    return w_(i, j);
  }

  [[nodiscard]] Cost pw_value(std::size_t i, std::size_t j, std::size_t p,
                              std::size_t q) const override {
    SUBDP_REQUIRE(i <= p && p < q && q <= j && j <= n_,
                  "pw index out of range");
    return pw_.get(i, j, p, q);
  }

  [[nodiscard]] const support::Grid2D<Cost>& w_table() const override {
    return w_;
  }

  [[nodiscard]] std::uint64_t w_finite_count() const override {
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j <= n_; ++j) {
        if (is_finite(w_(i, j))) ++count;
      }
    }
    return count;
  }

  [[nodiscard]] std::size_t pw_cell_count() const override {
    return pw_.cell_count();
  }

  [[nodiscard]] const std::vector<StepProfile>& step_profiles()
      const override {
    return profiles_;
  }

 private:
  /// One deferred write of a step's log: for a-square, `index` is into
  /// `entries()`; for a-pebble, into `pairs_`.
  struct Delta {
    std::uint32_t index = 0;
    Cost value = 0;
  };

  /// Log segments per host thread on a parallel backend — the same eight
  /// chunks per thread the pool's automatic grain aims for, so dynamic
  /// claiming still absorbs the sweeps' uneven per-index work.
  static constexpr unsigned kSegmentsPerThread = 8;

  /// A step's write log, cut into segments. A sweep over indices
  /// `[0, items)` gives segment `s` the indices `[bounds[s], bounds[s+1])`
  /// and the same slots of `entries`: the segment fills them from the
  /// front and stores how many it wrote in `counts[s]`. Each segment is
  /// one logical processor's private range, so logging takes no shared
  /// counter, and `entries` keeps its one slot per index.
  struct WriteLog {
    std::vector<Delta> entries;
    std::vector<std::uint32_t> counts;  ///< Capacity = most segments.
    std::vector<std::size_t> bounds;    ///< `segments + 1` cut points.
    std::size_t segments = 0;           ///< Segments of the last sweep.

    void allocate(std::size_t max_items, std::size_t max_segments) {
      entries.resize(max_items);
      counts.resize(max_segments);
      bounds.resize(max_segments + 1);
    }
    /// Cuts `[0, items)` into equal segments, at most one per count slot.
    void cut(std::size_t items) {
      segments = std::min(items, counts.size());
      for (std::size_t s = 0; s < segments; ++s) {
        bounds[s] = items * s / segments;
      }
      bounds[segments] = items;
    }
    [[nodiscard]] const Delta* head(std::size_t s) const {
      return entries.data() + bounds[s];
    }
    [[nodiscard]] std::size_t size() const {
      std::size_t total = 0;
      for (std::size_t s = 0; s < segments; ++s) total += counts[s];
      return total;
    }
  };

  /// Per-instance (re)initialisation shared by the constructor and
  /// `reset`: base-row costs, iteration counter, and frontier marks.
  /// `fresh_tables` skips the flag clears that a fresh allocation has
  /// already zero-initialised.
  void bind_instance(const dp::Problem& problem, bool fresh_tables) {
    problem_ = &problem;
    iteration_ = 0;
    profiles_.clear();
    prof_ = nullptr;
    for (std::size_t i = 0; i < n_; ++i) {
      w_(i, i + 1) = problem.init(i);
    }
    if (!fast_) w_next_ = w_;
    if (frontier_enabled_) {
      if (!fresh_tables) {
        for (std::size_t k = 0; k < pairs_.size(); ++k) {
          root_dirty_[k].store(0, std::memory_order_relaxed);
          pw_root_moved_[k].store(0, std::memory_order_relaxed);
        }
      }
      moved_roots_count_.store(0, std::memory_order_relaxed);
      square_frontier_ready_ = false;
      // The initial frontier: every base entry w(i, i+1) was just set.
      frontier_.clear();
      for (std::size_t i = 0; i < n_; ++i) {
        frontier_.push_back(Pair{static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(i + 1)});
      }
    }
  }

  /// Index of pair `(i,j)` in `pairs_` (groups are length-major, then `i`).
  [[nodiscard]] std::size_t pair_index(std::size_t i, std::size_t j) const {
    return pairs_offset_by_length_[j - i] + i;
  }

  /// Sec. 5 window for iteration `t` (1-based): `l = ceil(t/2)`, lengths
  /// `(l-1)^2 < L <= l^2`. Returns the pair-index range to pebble.
  [[nodiscard]] std::pair<std::size_t, std::size_t> pebble_window() const {
    if (!options_.windowed_pebble) return {0, pairs_.size()};
    const std::size_t l = (iteration_ + 1) / 2;
    std::size_t lo_len = (l - 1) * (l - 1) + 1;
    std::size_t hi_len = l * l;
    if (lo_len < 2) lo_len = 2;
    if (hi_len > n_) hi_len = n_;
    if (lo_len > n_ || hi_len < 2 || lo_len > hi_len) {
      return {0, 0};  // nothing to pebble this iteration
    }
    return {pairs_offset_by_length_[lo_len],
            pairs_offset_by_length_[hi_len + 1]};
  }

  // ---- Per-cell kernels --------------------------------------------------
  // Templated on `Instr`: with Instr = false, op counting and CREW
  // reporting vanish at compile time and the kernel inlines into the
  // worker loop of the fast engine.

  /// Full a-activate scan of one pair: both eq. 1a/1b targets for every
  /// split `k`. In-place writes (activate targets are read by nobody
  /// within the step). Returns the number of cells improved.
  template <bool Instr>
  std::uint64_t activate_pair(std::size_t i, std::size_t j,
                              std::uint64_t& ops) {
    std::uint64_t local_changed = 0;
    // Both tables store every child gap (eq. 1a/1b write targets): the
    // banded layout keeps out-of-band child gaps in a dedicated side
    // store because the terminal pebble of a balanced node needs them
    // (see pw_banded.hpp).
    for (std::size_t k = i + 1; k <= j - 1; ++k) {
      if constexpr (Instr) ops += 2;
      const Cost fv = problem_->f(i, k, j);
      const Cost w_right = w_(k, j);
      if (is_finite(w_right)) {
        const Cost cand = sat_add(fv, w_right);
        if (cand < pw_.get(i, j, i, k)) {
          pw_.set(i, j, i, k, cand);
          if constexpr (Instr) machine_.note_write(pw_.address(i, j, i, k));
          ++local_changed;
        }
      }
      const Cost w_left = w_(i, k);
      if (is_finite(w_left)) {
        const Cost cand = sat_add(fv, w_left);
        if (cand < pw_.get(i, j, k, j)) {
          pw_.set(i, j, k, j, cand);
          if constexpr (Instr) machine_.note_write(pw_.address(i, j, k, j));
          ++local_changed;
        }
      }
    }
    return local_changed;
  }

  /// a-square candidate scan for one stored quadruple; returns the best
  /// composition (callers write only if it beats `old_value`).
  template <bool Instr>
  Cost square_scan(const Quad& t, Cost old_value, std::uint64_t& ops) {
    const std::size_t i = t.i, j = t.j, p = t.p, q = t.q;
    Cost best = old_value;
    if (options_.square_mode == SquareMode::kRytterFull) {
      // Rytter: all intermediate gaps (r,s) with (p,q) ⊆ (r,s) ⊆ (i,j),
      // excluding the two identities.
      for (std::size_t r = i; r <= p; ++r) {
        for (std::size_t s = q; s <= j; ++s) {
          if (r == i && s == j) continue;
          if (r == p && s == q) continue;
          if constexpr (Instr) ++ops;
          const Cost a = pw_.get(i, j, r, s);
          if (!is_finite(a)) continue;
          const Cost b = pw_.get(r, s, p, q);
          best = sat_min(best, sat_add(a, b));
        }
      }
    } else {
      // HLV eq. (2c): intermediate shares the gap's row or column.
      // Out-of-band operands are infinite, so r (resp. s) may be
      // restricted to the B-window without changing the result.
      const std::size_t band = pw_.max_slack();
      const std::size_t r_lo = p > band && p - band > i ? p - band : i;
      const std::size_t s_hi = q + band < j ? q + band : j;
      for (std::size_t r = r_lo; r < p; ++r) {
        if constexpr (Instr) ++ops;
        const Cost a = pw_.get(i, j, r, q);
        if (!is_finite(a)) continue;
        const Cost b = pw_.get(r, q, p, q);
        best = sat_min(best, sat_add(a, b));
      }
      for (std::size_t s = q + 1; s <= s_hi; ++s) {
        if constexpr (Instr) ++ops;
        const Cost a = pw_.get(i, j, p, s);
        if (!is_finite(a)) continue;
        const Cost b = pw_.get(p, s, p, q);
        best = sat_min(best, sat_add(a, b));
      }
    }
    return best;
  }

  /// Fast-engine HLV a-square of one whole root `(i,j)` — the entry-list
  /// block `rb` — with the same candidate set and min-fold as
  /// `square_scan` over each of its targets, but in root-panel order: the
  /// loops run over the root's *first operands*, each read and tested for
  /// finiteness once, and every finite one min-folds its candidates into
  /// all the targets it serves. `panel` holds one cell per target `(p,q)`
  /// at `(p-i) * (m+1) + (j-q)`, where `m = min(B, L-1)` is the root's
  /// largest target slack (`L = j-i`):
  ///  * r-side: first operand `pw(i,j,r,q)` serves every target `(p,q)`
  ///    with `p > r`; their second operands `pw(r,q,p,q)` stream along
  ///    `r_window_cursor(r, q, r+1, q)`;
  ///  * s-side: first operand `pw(i,j,p,s)` serves every target `(p,q)`
  ///    with `q < s`; their second operands `pw(p,s,p,q)` stream along
  ///    `s_window_cursor(p, s, p, q_lo)`.
  /// The HLV window bound `B` never cuts these ranges short: a first
  /// operand has slack >= 1 and a target slack <= m <= B, so `p - r` and
  /// `s - q` stay below `B`. Every operand is stored in band (see the
  /// file comment), so reads go through the layout's cursors with no
  /// per-read addressing branch. The identity operand `pw(i,j,i,j)`
  /// (`r == i` with `q == j`, `s == j` with `p == i`) pairs 0 with the
  /// target's own value, can never improve it, and is not visited.
  /// A candidate is the plain sum `a + b`: `a` is finite and `b <=
  /// kInfinity = INT64_MAX / 4`, so the sum cannot overflow, and a sum at
  /// or past `kInfinity` — where `sat_add` would clamp — loses the min to
  /// the panel cell, which starts at `kInfinity`; the folded values are
  /// therefore exactly `square_scan`'s. Finally each target's panel cell
  /// is compared with its old value and logged at `*out++` if lower, in
  /// entry order.
  Delta* square_root_panel(const RootBlock& rb, Cost* panel,
                           Delta* out) const {
    const Pair root = pairs_[rb.pair];
    const std::size_t i = root.i, j = root.j;
    const std::size_t m = std::min(pw_.max_slack(), j - i - 1);
    const std::size_t stride = m + 1;
    std::fill(panel, panel + stride * stride, kInfinity);
    // r-side, one column `c = j-q` at a time, whose targets end at row
    // `last`; first operands ascend in `r`, so a cursor streams them too.
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t q = j - c;
      const std::size_t last = m - c;
      const std::size_t ar_lo = c == 0 ? 1 : 0;  // skip the identity operand
      if (ar_lo >= last) continue;
      PwWindowCursor first = pw_.r_window_cursor(i, j, i + ar_lo, q);
      for (std::size_t ar = ar_lo; ar < last; ++ar) {
        const Cost a = first.value();
        first.advance();
        if (!is_finite(a)) continue;
        const std::size_t r = i + ar;
        PwWindowCursor second = pw_.r_window_cursor(r, q, r + 1, q);
        Cost* cell = panel + (ar + 1) * stride + c;
        for (std::size_t ap = ar + 1; ap <= last; ++ap) {
          *cell = std::min(*cell, a + second.value());
          second.advance();
          cell += stride;
        }
      }
    }
    // s-side, one row `ap = p-i` at a time, whose targets end at column
    // `last`; first operands ascend in `s` (their column `cs = j-s`
    // descends).
    for (std::size_t ap = 0; ap < m; ++ap) {
      const std::size_t p = i + ap;
      const std::size_t last = m - ap;
      const std::size_t cs_lo = ap == 0 ? 1 : 0;  // skip the identity operand
      if (cs_lo >= last) continue;
      PwWindowCursor first = pw_.s_window_cursor(i, j, p, j - (last - 1));
      for (std::size_t cs = last; cs-- > cs_lo;) {
        const Cost a = first.value();
        first.advance();
        if (!is_finite(a)) continue;
        const std::size_t s = j - cs;
        PwWindowCursor second = pw_.s_window_cursor(p, s, p, j - last);
        Cost* cell = panel + ap * stride + last;
        for (std::size_t c = last; c > cs; --c) {
          *cell = std::min(*cell, a + second.value());
          second.advance();
          --cell;
        }
      }
    }
    const Cost* raw = pw_.raw_cells();
    const auto& quads = pw_.entries();
    for (std::size_t idx = rb.begin; idx < rb.end; ++idx) {
      const Quad t = quads[idx];
      const Cost best = panel[(t.p - i) * stride + (j - t.q)];
      if (best < raw[entry_slots_[idx]]) {
        *out++ = Delta{static_cast<std::uint32_t>(idx), best};
      }
    }
    return out;
  }

  /// This thread's root-panel scratch, grown to the engine's largest
  /// panel (`(min(B, n-1) + 1)^2` cells) on first use and then reused by
  /// every root the thread computes, in every step.
  [[nodiscard]] Cost* square_panel() const {
    thread_local std::vector<Cost> panel;
    if (panel.size() < panel_cells_) panel.resize(panel_cells_);
    return panel.data();
  }

  /// Reference a-pebble gap scan for one pair; returns the best pebbled
  /// cost (callers write only if it beats `old_value`).
  Cost pebble_scan(std::size_t i, std::size_t j, Cost old_value,
                   std::uint64_t& ops) {
    Cost best = old_value;
    pw_.for_each_gap(i, j, [&](std::size_t p, std::size_t q) {
      ++ops;
      const Cost a = pw_.get(i, j, p, q);
      if (!is_finite(a)) return;
      best = sat_min(best, sat_add(a, w_(p, q)));
    });
    return best;
  }

  /// Fast-engine a-pebble gap scan: same gap set, arithmetic and min-fold
  /// as `pebble_scan`, but the gaps arrive as the layout's
  /// arithmetic-progression `PwGapRun`s — a raw `pw` pointer advanced by
  /// a (possibly decaying) step, paired with a `w` slot advanced by a
  /// fixed stride — so the per-read identity / slack / child-gap
  /// branching of the general `get` vanishes from the inner loop.
  Cost pebble_scan_fast(std::size_t i, std::size_t j, Cost old_value) const {
    Cost best = old_value;
    const Cost* wraw = w_.data();
    pw_.for_each_gap_run(i, j, [&](const PwGapRun& run) {
      const Cost* cell = run.cell;
      std::ptrdiff_t step = run.cell_step;
      const Cost* wp = wraw + run.w_slot;
      for (std::size_t k = 0; k < run.count; ++k) {
        const Cost a = *cell;
        cell += step;
        step += run.cell_dstep;
        const Cost wv = *wp;
        wp += run.w_step;
        if (is_finite(a)) best = sat_min(best, sat_add(a, wv));
      }
    });
    return best;
  }

  // ---- Frontier bookkeeping ----------------------------------------------

  /// Records that some `pw` entry of root `pair_idx` moved, for both
  /// consumers: `root_dirty_` (read by a-pebble, sticky until the pair is
  /// rescanned) and `pw_root_moved_` (read by the next a-square, cleared
  /// at every square apply). Both flags are read before they are written:
  /// once a root is marked, later marks from any thread only load the
  /// shared bytes, so the cache lines stay shared instead of bouncing
  /// between cores. A flag read as 0 may still be raced for, so the first
  /// marking keeps the exchange, which admits exactly one appender per
  /// root per square interval to the dense `moved_roots_` list — always
  /// the exact set whose bitmap is `pw_root_moved_` (duplicate-free, in
  /// some backend-dependent order, which is fine: every consumer folds it
  /// with order-independent integer sums).
  void mark_root_dirty(std::size_t pair_idx) {
    if (root_dirty_[pair_idx].load(std::memory_order_relaxed) == 0) {
      root_dirty_[pair_idx].store(1, std::memory_order_relaxed);
    }
    if (pw_root_moved_[pair_idx].load(std::memory_order_relaxed) == 0 &&
        pw_root_moved_[pair_idx].exchange(1, std::memory_order_relaxed) ==
            0) {
      moved_roots_[moved_roots_count_.fetch_add(
          1, std::memory_order_relaxed)] =
          static_cast<std::uint32_t>(pair_idx);
    }
  }

  /// Runs one logged sweep over the segments `log` was last cut into, one
  /// logical processor per segment: `scan(lo, hi, out)` scans `[lo, hi)`,
  /// stores each improvement at `*out++` and returns the advanced `out`.
  template <class Scan>
  void run_logged(WriteLog& log, Scan&& scan) {
    machine_.run_blocks(
        static_cast<std::int64_t>(log.segments),
        [&](std::int64_t s_lo, std::int64_t s_hi) {
          for (auto s = static_cast<std::size_t>(s_lo);
               s < static_cast<std::size_t>(s_hi); ++s) {
            Delta* const head = log.entries.data() + log.bounds[s];
            const Delta* const tail =
                scan(log.bounds[s], log.bounds[s + 1], head);
            log.counts[s] = static_cast<std::uint32_t>(tail - head);
          }
        });
  }

  /// Turns a grid of interval marks into 2-D containment counts, in place:
  /// on entry `grid(a,b)` is 1 for each marked `(a,b)` and 0 elsewhere;
  /// on return `grid(i,j)` = #marked `(a,b)` with `i <= a < b <= j`
  /// (shared by the pebble's moved-w test and the square's root-block
  /// test). A row-prefix pass then a column-suffix pass make `grid(i,j)`
  /// the dominance count #marked `(a,b)` with `a >= i, b <= j`, which
  /// equals the containment count at every cell since marks only exist
  /// at `a < b`. The suffix pass adds row `i+1` into row `i` for `i`
  /// descending, so both passes are unit-stride.
  void prefix_containment(std::vector<std::uint32_t>& grid) const {
    const std::size_t stride = n_ + 1;
    for (std::size_t i = 0; i <= n_; ++i) {
      std::uint32_t* const row = grid.data() + i * stride;
      for (std::size_t j = 1; j <= n_; ++j) row[j] += row[j - 1];
    }
    for (std::size_t i = n_; i-- > 0;) {
      std::uint32_t* const row = grid.data() + i * stride;
      const std::uint32_t* const below = row + stride;
      for (std::size_t j = 0; j <= n_; ++j) row[j] += below[j];
    }
  }

  /// Builds the 2-D containment counts of the last pebble's moved
  /// `w` entries: `contained_(i,j)` = #moved `(p,q)` with `i<=p<q<=j`.
  void build_contained_counts() {
    if (prof_ != nullptr) ++prof_->mark_updates_rebuilt;
    std::fill(contained_.begin(), contained_.end(), std::uint32_t{0});
    for (const Pair e : frontier_) contained_[e.i * (n_ + 1) + e.j] = 1;
    prefix_containment(contained_);
  }

  /// Builds the root-major square sweep's whole-block skip test from the
  /// moved-roots list: `root_contained_(i,j)` = #moved roots inside
  /// `(i,j)`.
  void build_root_contained_counts() {
    if (prof_ != nullptr) ++prof_->mark_updates_rebuilt;
    const std::size_t stride = n_ + 1;
    std::fill(root_contained_.begin(), root_contained_.end(),
              std::uint32_t{0});
    const std::size_t moved =
        moved_roots_count_.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < moved; ++k) {
      const Pair pr = pairs_[moved_roots_[k]];
      root_contained_[pr.i * stride + pr.j] = 1;
    }
    prefix_containment(root_contained_);
  }

  /// Hoisted root-block test: true iff any moved root lies inside `(i,j)`
  /// — a superset of every operand root of every quad of the block, so a
  /// false answer proves the whole block clean.
  [[nodiscard]] bool root_block_moved(const Pair root) const {
    return root_contained_[root.i * (n_ + 1) + root.j] != 0;
  }

  /// Index of the first root block whose entry range contains `entry_idx`
  /// (the blocks partition the entry list in order).
  [[nodiscard]] std::size_t block_at(std::size_t entry_idx) const {
    const auto it = std::upper_bound(
        root_blocks_.begin(), root_blocks_.end(), entry_idx,
        [](std::size_t v, const RootBlock& blk) { return v < blk.end; });
    return static_cast<std::size_t>(it - root_blocks_.begin());
  }

  /// True iff some moved `w(p,q)` is a proper sub-interval of `(i,j)` —
  /// i.e. a (potential) stored gap whose weight the last pebble changed.
  /// Every proper sub-interval of `(i,j)` starts after `i` or ends before
  /// `j`, so it lies inside `(i+1,j)` or `(i,j-1)`.
  [[nodiscard]] bool gap_w_moved(std::size_t i, std::size_t j) const {
    const std::size_t at = i * (n_ + 1) + j;
    return contained_[at + n_ + 1] != 0 || contained_[at - 1] != 0;
  }

  // ---- Step drivers ------------------------------------------------------

  std::uint64_t run_activate() {
    if (frontier_enabled_) {
      // Frontier-driven activate touches one site per (moved entry,
      // affected root); a full sweep touches every (pair, split) twice.
      // Fall back to the full sweep when the frontier is dense.
      std::uint64_t frontier_sites = 0;
      for (const Pair e : frontier_) frontier_sites += e.i + (n_ - e.j);
      const bool use_frontier = frontier_sites < total_split_sites_;
      if (prof_ != nullptr) {
        prof_->frontier_sites = frontier_sites;
        prof_->total_split_sites = total_split_sites_;
        prof_->activate_used_frontier = use_frontier;
      }
      if (use_frontier) return run_activate_frontier();
    }
    std::atomic<std::uint64_t> changed{0};
    if (!fast_) {
      machine_.step(
          "a-activate", static_cast<std::int64_t>(pairs_.size()),
          [&](std::int64_t idx) -> std::uint64_t {
            const Pair pr = pairs_[static_cast<std::size_t>(idx)];
            std::uint64_t ops = 0;
            const std::uint64_t local = activate_pair<true>(pr.i, pr.j, ops);
            if (local > 0) {
              changed.fetch_add(local, std::memory_order_relaxed);
            }
            return ops;
          });
    } else {
      machine_.run_blocks(
          static_cast<std::int64_t>(pairs_.size()),
          [&](std::int64_t lo, std::int64_t hi) {
            std::uint64_t block_changed = 0;
            std::uint64_t ops = 0;
            for (std::int64_t idx = lo; idx < hi; ++idx) {
              const Pair pr = pairs_[static_cast<std::size_t>(idx)];
              const std::uint64_t local =
                  activate_pair<false>(pr.i, pr.j, ops);
              if (local > 0 && frontier_enabled_) {
                mark_root_dirty(static_cast<std::size_t>(idx));
              }
              block_changed += local;
            }
            if (block_changed > 0) {
              changed.fetch_add(block_changed, std::memory_order_relaxed);
            }
          });
    }
    return changed.load();
  }

  /// Fast-engine activate driven by the moved-`w` frontier: each moved
  /// entry (a,b) re-evaluates only the sites that read it — as the right
  /// child of roots (i,b) for i < a (target pw(i,b,i,a)) and as the left
  /// child of roots (a,j) for j > b (target pw(a,j,b,j)). All other
  /// sites' candidates are unchanged and, by monotonicity, already
  /// applied. Two logical processors per moved entry; the targets are
  /// pairwise distinct, so the step stays CREW.
  std::uint64_t run_activate_frontier() {
    std::atomic<std::uint64_t> changed{0};
    const std::size_t m = frontier_.size();
    machine_.run_blocks(
        static_cast<std::int64_t>(2 * m),
        [&](std::int64_t lo, std::int64_t hi) {
          std::uint64_t block_changed = 0;
          for (std::int64_t idx = lo; idx < hi; ++idx) {
            const Pair e = frontier_[static_cast<std::size_t>(idx >> 1)];
            const std::size_t a = e.i, b = e.j;
            const Cost wv = w_(a, b);  // finite: it just moved
            if ((idx & 1) == 0) {
              for (std::size_t i = a; i-- > 0;) {
                const Cost cand = sat_add(problem_->f(i, a, b), wv);
                if (cand < pw_.get(i, b, i, a)) {
                  pw_.set(i, b, i, a, cand);
                  mark_root_dirty(pair_index(i, b));
                  ++block_changed;
                }
              }
            } else {
              for (std::size_t j = b + 1; j <= n_; ++j) {
                const Cost cand = sat_add(problem_->f(a, b, j), wv);
                if (cand < pw_.get(a, j, b, j)) {
                  pw_.set(a, j, b, j, cand);
                  mark_root_dirty(pair_index(a, j));
                  ++block_changed;
                }
              }
            }
          }
          if (block_changed > 0) {
            changed.fetch_add(block_changed, std::memory_order_relaxed);
          }
        });
    return changed.load();
  }

  std::uint64_t run_square() {
    const auto& quads = pw_.entries();
    if (!fast_) {
      // Reference engine: full-table copy + swap double-buffering.
      std::atomic<std::uint64_t> changed{0};
      pw_next_->copy_from(pw_);
      machine_.step(
          "a-square", static_cast<std::int64_t>(quads.size()),
          [&](std::int64_t idx) -> std::uint64_t {
            const Quad t = quads[static_cast<std::size_t>(idx)];
            const Cost old_value = pw_.get(t.i, t.j, t.p, t.q);
            std::uint64_t ops = 0;
            const Cost best = square_scan<true>(t, old_value, ops);
            if (best < old_value) {
              pw_next_->set(t.i, t.j, t.p, t.q, best);
              machine_.note_write(pw_.address(t.i, t.j, t.p, t.q));
              changed.fetch_add(1, std::memory_order_relaxed);
            }
            return ops;
          });
      std::swap(pw_, *pw_next_);
      return changed.load();
    }

    // Fast engine: reads see pre-step state because all writes are
    // deferred to the post-barrier apply below. HLV runs the root-panel
    // kernel one root block at a time, and — once operand-movement marks
    // exist (every square after the first) — skips the blocks the
    // containment test proves clean.
    const bool hlv = options_.square_mode == SquareMode::kHlvOneLevel;
    const bool skip_clean = frontier_enabled_ && square_frontier_ready_ && hlv;
    if (skip_clean) build_root_contained_counts();
    const bool prof = prof_ != nullptr;
    if (prof) {
      prof_->square_quads_total += quads.size();
      lap(&StepProfile::mark_update_ns);
    }
    pw_log_.cut(quads.size());
    if (hlv) {
      // Move every cut down to the start of the root block it falls in,
      // so each root's panel is computed by exactly one segment.
      for (std::size_t s = 1; s < pw_log_.segments; ++s) {
        pw_log_.bounds[s] = root_blocks_[block_at(pw_log_.bounds[s])].begin;
      }
    }
    run_logged(pw_log_, [&](std::size_t lo, std::size_t hi, Delta* out) {
      if (!hlv) {
        const Cost* raw_read = pw_.raw_cells();
        std::uint64_t ops = 0;
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const Cost old_value = raw_read[entry_slots_[idx]];
          const Cost best = square_scan<false>(quads[idx], old_value, ops);
          if (best < old_value) {
            *out++ = Delta{static_cast<std::uint32_t>(idx), best};
          }
        }
        if (prof) {
          prof_quads_scanned_.fetch_add(hi - lo, std::memory_order_relaxed);
        }
        return out;
      }
      Cost* const panel = square_panel();
      std::uint64_t blocks_scanned = 0, blocks_skipped = 0;
      std::uint64_t quads_scanned = 0, quads_block_skipped = 0;
      for (std::size_t bi = block_at(lo);
           bi < root_blocks_.size() && root_blocks_[bi].begin < hi; ++bi) {
        const RootBlock& rb = root_blocks_[bi];
        if (skip_clean && !root_block_moved(pairs_[rb.pair])) {
          if (prof) {
            ++blocks_skipped;
            quads_block_skipped += rb.end - rb.begin;
          }
          continue;
        }
        if (prof) {
          blocks_scanned += skip_clean ? 1 : 0;
          quads_scanned += rb.end - rb.begin;
        }
        out = square_root_panel(rb, panel, out);
      }
      if (prof) {
        prof_blocks_scanned_.fetch_add(blocks_scanned,
                                       std::memory_order_relaxed);
        prof_blocks_skipped_.fetch_add(blocks_skipped,
                                       std::memory_order_relaxed);
        prof_quads_scanned_.fetch_add(quads_scanned,
                                      std::memory_order_relaxed);
        prof_quads_block_skipped_.fetch_add(quads_block_skipped,
                                            std::memory_order_relaxed);
      }
      return out;
    });
    const std::size_t logged = pw_log_.size();
    if (prof) {
      prof_->pw_log_entries = logged;
      lap(&StepProfile::square_sweep_ns);
    }
    if (frontier_enabled_) {
      // This square consumed all accumulated movement marks; the next one
      // must see only its own applies plus the next activate's writes.
      // The moved-roots list is the exact set behind `pw_root_moved_`, so
      // the clear costs O(moved), not O(pairs).
      const std::size_t moved =
          moved_roots_count_.load(std::memory_order_relaxed);
      for (std::size_t k = 0; k < moved; ++k) {
        pw_root_moved_[moved_roots_[k]].store(0, std::memory_order_relaxed);
      }
      moved_roots_count_.store(0, std::memory_order_relaxed);
      square_frontier_ready_ = true;
    }
    // Apply after the barrier, one processor per log segment: every
    // improved cell is distinct, and a segment's entries ascend, so the
    // quads of one root arrive as a run and mark the root once.
    if (logged > 0) {
      Cost* raw = pw_.raw_cells();
      machine_.run_blocks(
          static_cast<std::int64_t>(pw_log_.segments),
          [&](std::int64_t s_lo, std::int64_t s_hi) {
            for (auto s = static_cast<std::size_t>(s_lo);
                 s < static_cast<std::size_t>(s_hi); ++s) {
              const Delta* rec = pw_log_.head(s);
              const Delta* const end = rec + pw_log_.counts[s];
              std::size_t marked = pairs_.size();  // no root yet
              for (; rec != end; ++rec) {
                raw[entry_slots_[rec->index]] = rec->value;
                if (!frontier_enabled_) continue;
                const Quad t = quads[rec->index];
                const std::size_t root = pair_index(t.i, t.j);
                if (root != marked) {
                  mark_root_dirty(root);
                  marked = root;
                }
              }
            }
          });
    }
    if (prof) lap(&StepProfile::square_apply_ns);
    return logged;
  }

  std::uint64_t run_pebble() {
    const auto [w_begin, w_end] = pebble_window();
    if (w_begin == w_end) {
      if (frontier_enabled_) frontier_.clear();
      return 0;
    }
    if (!fast_) {
      // Reference engine: full w copy + swap double-buffering.
      std::atomic<std::uint64_t> changed{0};
      w_next_ = w_;
      machine_.step(
          "a-pebble", static_cast<std::int64_t>(w_end - w_begin),
          [&, w_begin = w_begin](std::int64_t idx) -> std::uint64_t {
            const Pair pr = pairs_[w_begin + static_cast<std::size_t>(idx)];
            const Cost old_value = w_(pr.i, pr.j);
            std::uint64_t ops = 0;
            const Cost best = pebble_scan(pr.i, pr.j, old_value, ops);
            if (best < old_value) {
              w_next_(pr.i, pr.j) = best;
              machine_.note_write(
                  kWAddressTag |
                  (static_cast<std::uint64_t>(pr.i) * (n_ + 1) + pr.j));
              changed.fetch_add(1, std::memory_order_relaxed);
            }
            return ops;
          });
      std::swap(w_, w_next_);
      return changed.load();
    }

    const bool use_frontier = frontier_enabled_;
    if (use_frontier) build_contained_counts();
    const bool prof = prof_ != nullptr;
    if (prof) {
      prof_->pebble_pairs_total += w_end - w_begin;
      lap(&StepProfile::mark_update_ns);
    }
    w_log_.cut(w_end - w_begin);
    run_logged(
        w_log_,
        [&, w_begin = w_begin](std::size_t lo, std::size_t hi, Delta* out) {
          std::uint64_t pairs_scanned = 0, pairs_skipped = 0;
          for (std::size_t idx = lo; idx < hi; ++idx) {
            const std::size_t at = w_begin + idx;
            const Pair pr = pairs_[at];
            if (use_frontier) {
              // Skip unless some input moved: a pw entry of this root
              // (activate/square this iteration, sticky until rescanned)
              // or the w of a contained gap (last pebble).
              const bool pw_moved =
                  root_dirty_[at].load(std::memory_order_relaxed) != 0;
              if (!pw_moved && !gap_w_moved(pr.i, pr.j)) {
                if (prof) ++pairs_skipped;
                continue;
              }
              if (pw_moved) {
                root_dirty_[at].store(0, std::memory_order_relaxed);
              }
            }
            if (prof) ++pairs_scanned;
            const Cost old_value = w_(pr.i, pr.j);
            const Cost best = pebble_scan_fast(pr.i, pr.j, old_value);
            if (best < old_value) {
              *out++ = Delta{static_cast<std::uint32_t>(at), best};
            }
          }
          if (prof) {
            prof_pairs_scanned_.fetch_add(pairs_scanned,
                                          std::memory_order_relaxed);
            prof_pairs_skipped_.fetch_add(pairs_skipped,
                                          std::memory_order_relaxed);
          }
          return out;
        });
    const std::size_t logged = w_log_.size();
    if (prof) {
      prof_->w_log_entries = logged;
      lap(&StepProfile::pebble_sweep_ns);
    }
    // Apply after the barrier; the logged pairs are the next frontier, in
    // ascending pair order whatever the backend. At most one entry per
    // pair, so the apply stays on this thread.
    if (frontier_enabled_) frontier_.clear();
    Cost* wraw = w_.data();
    for (std::size_t s = 0; s < w_log_.segments; ++s) {
      const Delta* const head = w_log_.head(s);
      for (const Delta* rec = head; rec != head + w_log_.counts[s]; ++rec) {
        const Pair pr = pairs_[rec->index];
        wraw[pr.i * (n_ + 1) + pr.j] = rec->value;
        if (frontier_enabled_) frontier_.push_back(pr);
      }
    }
    if (prof) lap(&StepProfile::pebble_apply_ns);
    return logged;
  }

  // ---- Per-step profiling (options_.profile) -----------------------------
  // Parallel sweep lambdas accumulate block-local counters and flush them
  // to these relaxed atomics; `end_profile` loads the totals into the
  // iteration's StepProfile after the last barrier. Serial call sites
  // (the activate density decision, the mark-grid update choice, the
  // post-barrier log totals) write `prof_` directly, and so do the phase
  // laps, which only the thread running `iterate()` takes.

  using ProfileClock = std::chrono::steady_clock;

  void begin_profile() {
    profiles_.emplace_back();
    prof_ = &profiles_.back();
    prof_->iteration = iteration_;
    lap_start_ = ProfileClock::now();
    prof_blocks_scanned_.store(0, std::memory_order_relaxed);
    prof_blocks_skipped_.store(0, std::memory_order_relaxed);
    prof_quads_scanned_.store(0, std::memory_order_relaxed);
    prof_quads_block_skipped_.store(0, std::memory_order_relaxed);
    prof_pairs_scanned_.store(0, std::memory_order_relaxed);
    prof_pairs_skipped_.store(0, std::memory_order_relaxed);
  }

  /// Adds the wall time since the previous lap to `prof_->*phase`.
  void lap(std::uint64_t StepProfile::*phase) {
    const ProfileClock::time_point now = ProfileClock::now();
    prof_->*phase += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - lap_start_)
            .count());
    lap_start_ = now;
  }

  void end_profile() {
    prof_->square_blocks_scanned =
        prof_blocks_scanned_.load(std::memory_order_relaxed);
    prof_->square_blocks_skipped =
        prof_blocks_skipped_.load(std::memory_order_relaxed);
    prof_->square_quads_scanned =
        prof_quads_scanned_.load(std::memory_order_relaxed);
    prof_->square_quads_block_skipped =
        prof_quads_block_skipped_.load(std::memory_order_relaxed);
    prof_->pebble_pairs_scanned =
        prof_pairs_scanned_.load(std::memory_order_relaxed);
    prof_->pebble_pairs_skipped =
        prof_pairs_skipped_.load(std::memory_order_relaxed);
    prof_ = nullptr;
  }

  std::shared_ptr<const EngineShape<Table>> shape_;
  const dp::Problem* problem_;
  SublinearOptions options_;
  pram::Machine& machine_;
  std::size_t n_;
  bool fast_;  ///< `options_.engine == EngineKind::kFast`.
  Table pw_;
  std::optional<Table> pw_next_;    ///< Reference engine only.
  support::Grid2D<Cost> w_;
  support::Grid2D<Cost> w_next_;    ///< Reference engine only.

  // Shape-owned geometry — immutable aliases into `*shape_`.
  const ShapeArray<Pair>& pairs_;
  const ShapeArray<std::size_t>& pairs_offset_by_length_;
  const ShapeArray<std::uint32_t>& entry_slots_;  ///< Slot per entry.
  const ShapeArray<RootBlock>& root_blocks_;      ///< Per-root runs.
  std::uint64_t total_split_sites_ = 0;

  // Write-log stepping state (fast engine only).
  WriteLog pw_log_;  ///< Indexed like `entries()`.
  WriteLog w_log_;   ///< Indexed like the pebble window of `pairs_`.
  std::size_t panel_cells_ = 0;  ///< Largest root panel (`square_panel`).

  // Frontier state (frontier_enabled_ == true).
  bool frontier_enabled_ = false;
  bool square_frontier_ready_ = false;  ///< First square has no marks yet.
  std::unique_ptr<std::atomic<std::uint8_t>[]> root_dirty_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> pw_root_moved_;
  std::vector<Pair> frontier_;  ///< w entries moved by the last pebble.
  std::vector<std::uint32_t> contained_;  ///< Over `frontier_`.
  std::vector<std::uint32_t> root_contained_;  ///< Over `moved_roots_`.
  // The dense list behind `pw_root_moved_` (see mark_root_dirty).
  std::vector<std::uint32_t> moved_roots_;
  std::atomic<std::size_t> moved_roots_count_{0};

  // Profiling state (see begin_profile / end_profile above). `prof_` is
  // non-null only inside a profiled iterate(); every hot-path counter
  // increment is guarded by a hoisted `prof` bool, so the default
  // (profile off) takes no extra work.
  bool profile_ = false;
  std::vector<StepProfile> profiles_;
  StepProfile* prof_ = nullptr;
  std::atomic<std::uint64_t> prof_blocks_scanned_{0};
  std::atomic<std::uint64_t> prof_blocks_skipped_{0};
  std::atomic<std::uint64_t> prof_quads_scanned_{0};
  std::atomic<std::uint64_t> prof_quads_block_skipped_{0};
  std::atomic<std::uint64_t> prof_pairs_scanned_{0};
  std::atomic<std::uint64_t> prof_pairs_skipped_{0};
  ProfileClock::time_point lap_start_;

  std::size_t iteration_ = 0;
};

}  // namespace subdp::core::detail
