#pragma once

/// \file pw_dense.hpp
/// Entries-indexed dense partial-weight table (the Sec. 2 algorithm's
/// `pw'`, every slack stored).
///
/// The seed stored the table as a flat `(n+1)^4` cube — O(1) addressing
/// bought with ~24x unused cells, which capped dense instances at n = 64.
/// This layout allocates only the *valid* index space: roots `(i,j)` with
/// `j - i >= 2` grouped by length ascending, and within each root the
/// triangular family of gaps `(p,q)` with `i <= p < q <= j` — `L(L+1)/2`
/// cells for a root of length `L` (one of them the definitional identity
/// gap, kept as a never-touched slot so gap addressing stays branch-free).
/// Total: `sum_L (n-L+1) * L(L+1)/2 ~ n^4/24` cells instead of `(n+1)^4`,
/// which lifts the supported size to `kMaxDenseN` = 192 in the same memory
/// envelope (~0.45 GB per table at the cap).
///
/// Addressing is still O(1): a per-length cumulative base, `i` times the
/// per-root block size, plus the closed-form triangle offset
/// `a(2L-a+1)/2 + (b-a-1)` for `a = p-i`, `b = q-i`. Along the engine's
/// HLV windows the offset advances by an arithmetic progression, which is
/// what the `PwStoragePolicy` window cursors expose.
///
/// The identity entries `pw(i,j,i,j) = 0` are definitional and answered
/// without a read; every other stored entry starts at `kInfinity`,
/// matching the algorithm's initialisation. Unlike the old cube (where
/// any coordinate quadruple landed on some allocated cell), `get`/`set`
/// now require a structurally valid quadruple `i <= p < q <= j <= n` —
/// asserted in debug builds, undefined in release. Sizing arithmetic is
/// overflow-checked (`checked_size_mul`/`checked_size_add`) rather than
/// trusting the cap to keep products representable.
///
/// Plan/instance split: offsets and the entry list depend only on `n`, so
/// they live in an immutable `DensePwLayout` shared between every table of
/// the same shape (see `SolvePlan`); a `DensePwTable` owns only its
/// mutable cell vector.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pw_layout.hpp"
#include "core/quad.hpp"
#include "support/cost.hpp"

namespace subdp::core {

/// Immutable dense-layout geometry for one `n`: the per-length cumulative
/// bases and the square-entry list. Shared across same-shape instances.
class DensePwLayout {
 public:
  explicit DensePwLayout(std::size_t n);

  /// Rehydrates a layout around snapshot-backed arrays (the mmap load
  /// path; see snapshot/plan_snapshot.hpp). Offsets and counts are
  /// recomputed from `n` and verified against the provided arrays — any
  /// mismatch throws; entry contents are vouched for by the snapshot
  /// checksum, only their count is checked here.
  DensePwLayout(std::size_t n, ShapeArray<std::size_t> length_base,
                ShapeArray<Quad> entries);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// Total allocated cells (identity slots included).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cell_count_;
  }

  /// All stored quadruples, grouped by root-interval length ascending and
  /// contiguous per root.
  [[nodiscard]] const ShapeArray<Quad>& entries() const noexcept {
    return entries_;
  }

  /// Cumulative block offsets per length (snapshot serialisation).
  [[nodiscard]] const ShapeArray<std::size_t>& length_base() const noexcept {
    return length_base_;
  }

  /// Storage slot of a stored square-step entry (index into a table's
  /// `raw_cells`); the layout-level form of `DensePwTable::entry_slot`,
  /// usable before any table exists (engine-shape precomputation).
  [[nodiscard]] std::size_t entry_slot(std::size_t i, std::size_t j,
                                       std::size_t p, std::size_t q) const {
    return flat(i, j, p, q);
  }

  /// Cells of one root of length `len`: the gap triangle `0 <= a < b <=
  /// len`, identity slot included.
  [[nodiscard]] static constexpr std::size_t cells_per_root(
      std::size_t len) noexcept {
    return len * (len + 1) / 2;
  }

  [[nodiscard]] std::size_t flat(std::size_t i, std::size_t j, std::size_t p,
                                 std::size_t q) const {
    const std::size_t len = j - i;
    const std::size_t a = p - i;
    const std::size_t b = q - i;
    return length_base_[len] + i * cells_per_root(len) +
           a * (2 * len - a + 1) / 2 + (b - a - 1);
  }

 private:
  /// Computes `cell_count_` and the offset table from `n` alone (shared
  /// by both constructors); returns the root count.
  std::size_t init_geometry(std::vector<std::size_t>& length_base);

  std::size_t n_;
  std::size_t cell_count_ = 0;
  ShapeArray<std::size_t> length_base_;  ///< Cumulative block offsets.
  ShapeArray<Quad> entries_;
};

/// Dense `pw'` storage for instances of up to `kMaxDenseN` objects.
class DensePwTable {
 public:
  /// Storage-policy identifier (diagnostics, bench labels).
  static constexpr const char* kLayoutName = "dense-entries";

  /// The immutable geometry this table's cells are addressed by.
  using Layout = DensePwLayout;

  /// Largest supported n. The entries-indexed layout needs ~n^4/24 cells,
  /// so 192 keeps 2 buffers x 8 bytes within ~1 GB (the seed's cube hit
  /// that wall at 64); the constructor additionally overflow-checks the
  /// cell arithmetic so the cap is a memory policy, not a correctness
  /// guard.
  static constexpr std::size_t kMaxDenseN = 192;

  /// Builds the shared layout for one `n` (the `band` parameter exists
  /// for interface parity with `BandedPwTable` and is ignored).
  [[nodiscard]] static std::shared_ptr<const DensePwLayout> make_layout(
      std::size_t n, std::size_t /*band*/ = 0) {
    return std::make_shared<const DensePwLayout>(n);
  }

  /// `band` is accepted for interface parity with `BandedPwTable` and
  /// ignored (a dense table stores every slack). Builds a private layout;
  /// plans share layouts instead.
  explicit DensePwTable(std::size_t n, std::size_t band = 0)
      : DensePwTable(make_layout(n, band)) {}

  /// Binds a shared layout; allocates only this instance's cells.
  explicit DensePwTable(std::shared_ptr<const DensePwLayout> layout);

  [[nodiscard]] const DensePwLayout& layout() const noexcept {
    return *layout_;
  }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// Effective slack bound: dense tables store all slacks up to n.
  [[nodiscard]] std::size_t max_slack() const noexcept { return n_; }

  /// Reads `pw'(i,j,p,q)` (requires `i <= p < q <= j <= n`); identity
  /// gaps yield 0, anything unwritten yields `kInfinity`.
  [[nodiscard]] Cost get(std::size_t i, std::size_t j, std::size_t p,
                         std::size_t q) const {
    SUBDP_ASSERT(i <= p && p < q && q <= j && j <= n_);
    if (p == i && q == j) return 0;
    return cells_[layout_->flat(i, j, p, q)];
  }

  /// Writes a stored (non-identity) entry.
  void set(std::size_t i, std::size_t j, std::size_t p, std::size_t q,
           Cost value) {
    SUBDP_ASSERT(i <= p && p < q && q <= j && j <= n_);
    SUBDP_ASSERT(!(p == i && q == j));
    cells_[layout_->flat(i, j, p, q)] = value;
  }

  /// True iff the entry is materialised (always, for dense tables).
  [[nodiscard]] bool stores(std::size_t i, std::size_t j, std::size_t p,
                            std::size_t q) const {
    return i <= p && p < q && q <= j && !(p == i && q == j);
  }

  /// Linearised address for CREW-conformance reporting.
  [[nodiscard]] std::uint64_t address(std::size_t i, std::size_t j,
                                      std::size_t p, std::size_t q) const {
    return static_cast<std::uint64_t>(layout_->flat(i, j, p, q));
  }

  /// Storage slot of a stored square-step entry (index into `raw_cells`).
  /// Lets the engine apply a write log without re-deriving the layout.
  [[nodiscard]] std::size_t entry_slot(std::size_t i, std::size_t j,
                                       std::size_t p, std::size_t q) const {
    SUBDP_ASSERT(stores(i, j, p, q));
    return layout_->flat(i, j, p, q);
  }

  /// Incremental reader over `pw'(i,j,r,q)` for ascending `r` starting at
  /// `r0` (the HLV r-window's first operand): the triangle offset grows by
  /// `len - a - 1` per step, shrinking by one each time.
  [[nodiscard]] PwWindowCursor r_window_cursor(std::size_t i, std::size_t j,
                                               std::size_t r0,
                                               std::size_t q) const {
    const std::size_t len = j - i;
    const std::size_t a = r0 - i;
    return {cells_.data() + layout_->flat(i, j, r0, q),
            static_cast<std::ptrdiff_t>(len - a - 1), -1};
  }

  /// Incremental reader over `pw'(i,j,p,s)` for ascending `s` starting at
  /// `s0` (the HLV s-window's first operand): contiguous cells.
  [[nodiscard]] PwWindowCursor s_window_cursor(std::size_t i, std::size_t j,
                                               std::size_t p,
                                               std::size_t s0) const {
    return {cells_.data() + layout_->flat(i, j, p, s0), 1, 0};
  }

  /// Direct cell storage (write-log apply path, cursor reads).
  [[nodiscard]] Cost* raw_cells() noexcept { return cells_.data(); }
  [[nodiscard]] const Cost* raw_cells() const noexcept {
    return cells_.data();
  }

  /// Number of allocated cells (the memory-footprint metric for E7);
  /// exceeds `entry_count()` only by the one identity slot per root.
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size();
  }

  /// Number of *meaningful* (structurally valid, stored) entries.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entries().size();
  }

  /// All stored quadruples, grouped by root-interval length ascending and
  /// contiguous per root (the order the square step iterates in; the
  /// engine's root-major sweep keys its block table off this grouping).
  [[nodiscard]] const ShapeArray<Quad>& entries() const noexcept {
    return layout_->entries();
  }

  /// Enumerates the stored gaps `(p,q)` of root `(i,j)` (pebble step).
  template <class Fn>
  void for_each_gap(std::size_t i, std::size_t j, Fn&& fn) const {
    for (std::size_t p = i; p < j; ++p) {
      for (std::size_t q = p + 1; q <= j; ++q) {
        if (p == i && q == j) continue;
        fn(p, q);
      }
    }
  }

  /// Enumerates the stored gaps of root `(i,j)` as arithmetic-progression
  /// runs (the fast pebble scan's reader; same gap set as `for_each_gap`).
  /// A root's gap triangle is laid out row-major by left endpoint `p`, so
  /// every `p` contributes one fully contiguous run — cells and `w` slots
  /// both stride 1 along ascending `q`. The `p == i` row is one gap short:
  /// its last slot is the identity `(i,j)`, which is skipped.
  template <class Fn>
  void for_each_gap_run(std::size_t i, std::size_t j, Fn&& fn) const {
    const std::size_t len = j - i;
    const std::size_t stride = n_ + 1;
    const Cost* cell = cells_.data() + layout_->flat(i, j, i, i + 1);
    fn(PwGapRun{cell, 1, 0, i * stride + (i + 1), 1, len - 1});
    cell += len;  // past the identity slot ending the p == i row
    std::size_t w0 = (i + 1) * stride + (i + 2);
    for (std::size_t p = i + 1; p < j; ++p) {
      const std::size_t count = j - p;
      fn(PwGapRun{cell, 1, 0, w0, 1, count});
      cell += count;
      w0 += stride + 1;
    }
  }

  /// Resets every stored entry to `kInfinity` (in place, no reallocation).
  void reset();

  /// Bulk copy from a same-shape table (square-step double buffering).
  void copy_from(const DensePwTable& other);

 private:
  std::shared_ptr<const DensePwLayout> layout_;
  std::size_t n_;  ///< Cached from the layout (hot-path locality).
  std::vector<Cost> cells_;
};

static_assert(PwStoragePolicy<DensePwTable>);

}  // namespace subdp::core
