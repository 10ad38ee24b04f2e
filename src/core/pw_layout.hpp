#pragma once

/// \file pw_layout.hpp
/// The compile-time storage-policy concept behind the `pw'` tables.
///
/// `engine.hpp` is templated on its partial-weight table; this header pins
/// down the contract that template assumes, so a layout is checked against
/// the full interface at instantiation time instead of failing two template
/// layers deep (or, worse, silently compiling a per-call branch). Both
/// shipped layouts — `DensePwTable` (entries-indexed, every slack) and
/// `BandedPwTable` (slack-banded plus child-gap side stores) — model
/// `PwStoragePolicy`, and the engine's kernels are instantiated once per
/// layout with the layout's own addressing inlined.
///
/// Beyond the classic get/set/stores surface, a policy must expose the
/// *unchecked in-band read machinery* the fast-path square kernel is built
/// on:
///
///  * `r_window_cursor` / `s_window_cursor` — incremental readers along
///    the HLV windows. In every layout the slot of `pw'(i,j,r,q)` for
///    ascending `r` (and of `pw'(i,j,p,s)` for ascending `s`) advances by
///    an *arithmetic progression* — dense rows stride `len-a-1, len-a-2,
///    ...`, banded slack blocks stride `s+2, s+3, ...` — so one
///    `PwWindowCursor{cell, step, dstep}` covers all four cases with two
///    adds per element and no address re-derivation;
///  * `for_each_gap_run` — the a-pebble analogue of the window cursors: the
///    stored gaps of one root `(i,j)`, partitioned into `PwGapRun`s inside
///    which both the pw slot and the flat `w(p,q)` slot (stride `n+1`)
///    advance by arithmetic progressions. Dense roots decompose into one
///    contiguous run per left endpoint `p`; banded roots into one
///    contiguous run per slack `s` (w slots striding `n+2`) plus, past the
///    band, one run per child-gap side store, whose cell offsets are
///    quadratic in the boundary `k` and therefore still APs. The engine's
///    fast pebble kernel streams these runs instead of calling the general
///    `get` per gap (identity / slack / child-gap branches eliminated);
///    `for_each_gap` remains the reference enumeration, and the two must
///    cover exactly the same `(p,q)` set with identical cell values.
///
/// `entries()` must enumerate the square-step targets grouped by root
/// length ascending with the quads of one root `(i,j)` contiguous; the
/// engine's root-major frontier sweep builds its block table from exactly
/// that grouping (a layout that interleaved roots would still be correct,
/// just unskippable).
///
/// A policy is further split into an immutable *layout* half and a mutable
/// *cells* half: `T::Layout` owns everything a `(n, band)` shape
/// determines — offset tables, the entry list, cell counts —
/// `T::make_layout(n, band)` builds one behind a `shared_ptr`, and
/// `T(layout)` binds a shared layout to a fresh cell allocation. This is
/// the seam `SolvePlan` amortises across instances: the plan builds each
/// layout once, every `SolveSession` table of that shape shares it, and
/// per-instance setup degenerates to `reset()` (an in-place fill). The
/// layout's bulk arrays are `ShapeArray`s (shape_array.hpp), so a layout
/// rehydrated from a plan snapshot can alias the file mapping instead of
/// copying the entry list (snapshot/plan_snapshot.hpp).
///
/// The header also provides the overflow-checked size arithmetic the
/// layout constructors use: table shapes are products of four instance
/// dimensions, and a silent `std::size_t` wrap would turn "too big" into a
/// small, wrong allocation.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/quad.hpp"
#include "core/shape_array.hpp"
#include "support/assert.hpp"
#include "support/cost.hpp"

namespace subdp::core {

/// Overflow-checked multiply for table sizing; throws std::invalid_argument
/// instead of wrapping.
[[nodiscard]] constexpr std::size_t checked_size_mul(std::size_t a,
                                                     std::size_t b) {
  SUBDP_REQUIRE(b == 0 || a <= std::numeric_limits<std::size_t>::max() / b,
                "pw table size arithmetic overflows std::size_t");
  return a * b;
}

/// Overflow-checked add for table sizing; throws std::invalid_argument
/// instead of wrapping.
[[nodiscard]] constexpr std::size_t checked_size_add(std::size_t a,
                                                     std::size_t b) {
  SUBDP_REQUIRE(a <= std::numeric_limits<std::size_t>::max() - b,
                "pw table size arithmetic overflows std::size_t");
  return a + b;
}

/// Incremental in-band reader along one HLV window. The slot sequence is an
/// arithmetic progression (see the file comment), so advancing is two adds:
/// `cell += step; step += dstep`.
struct PwWindowCursor {
  const Cost* cell = nullptr;
  std::ptrdiff_t step = 0;
  std::ptrdiff_t dstep = 0;

  [[nodiscard]] Cost value() const noexcept { return *cell; }
  void advance() noexcept {
    cell += step;
    step += dstep;
  }
};

/// One arithmetic-progression run of a root's stored gaps (a-pebble fast
/// scan). Enumerates `count` gaps `(p,q)`: the pw slot starts at `cell`
/// and advances like a `PwWindowCursor` (`cell += cell_step; cell_step +=
/// cell_dstep`), while the matching `w(p,q)` slot — flattened as
/// `p * (n+1) + q` — starts at `w_slot` and advances by the constant
/// `w_step`. A run never contains the identity gap `(i,j)`.
struct PwGapRun {
  const Cost* cell = nullptr;
  std::ptrdiff_t cell_step = 0;
  std::ptrdiff_t cell_dstep = 0;
  std::size_t w_slot = 0;
  std::ptrdiff_t w_step = 0;
  std::size_t count = 0;
};

namespace layout_detail {
/// Stand-in callable for concept-checking `for_each_gap` (lambdas cannot
/// appear in a requires-expression portably).
struct GapSink {
  void operator()(std::size_t, std::size_t) const noexcept {}
};
/// Stand-in callable for concept-checking `for_each_gap_run`.
struct GapRunSink {
  void operator()(const PwGapRun&) const noexcept {}
};
}  // namespace layout_detail

/// The storage interface `detail::Engine` instantiates its kernels against.
template <class T>
concept PwStoragePolicy =
    std::constructible_from<T, std::size_t, std::size_t> &&
    std::constructible_from<T, std::shared_ptr<const typename T::Layout>> &&
    requires(T t, const T c, std::size_t z, Cost v) {
      typename T::Layout;
      { T::make_layout(z, z) } ->
          std::same_as<std::shared_ptr<const typename T::Layout>>;
      { c.layout() } noexcept ->
          std::same_as<const typename T::Layout&>;
      { T::kLayoutName } -> std::convertible_to<const char*>;
      { c.n() } noexcept -> std::same_as<std::size_t>;
      { c.max_slack() } noexcept -> std::same_as<std::size_t>;
      { c.get(z, z, z, z) } -> std::same_as<Cost>;
      { t.set(z, z, z, z, v) } -> std::same_as<void>;
      { c.stores(z, z, z, z) } -> std::same_as<bool>;
      { c.address(z, z, z, z) } -> std::same_as<std::uint64_t>;
      { c.entry_slot(z, z, z, z) } -> std::same_as<std::size_t>;
      { c.r_window_cursor(z, z, z, z) } -> std::same_as<PwWindowCursor>;
      { c.s_window_cursor(z, z, z, z) } -> std::same_as<PwWindowCursor>;
      { t.raw_cells() } noexcept -> std::same_as<Cost*>;
      { c.raw_cells() } noexcept -> std::same_as<const Cost*>;
      { c.cell_count() } noexcept -> std::same_as<std::size_t>;
      { c.entry_count() } noexcept -> std::same_as<std::size_t>;
      { c.entries() } noexcept -> std::same_as<const ShapeArray<Quad>&>;
      { c.for_each_gap(z, z, layout_detail::GapSink{}) } ->
          std::same_as<void>;
      { c.for_each_gap_run(z, z, layout_detail::GapRunSink{}) } ->
          std::same_as<void>;
      { t.reset() } -> std::same_as<void>;
      { t.copy_from(c) } -> std::same_as<void>;
    };

}  // namespace subdp::core
