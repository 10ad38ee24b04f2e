#pragma once

/// \file pw_banded.hpp
/// Slack-banded partial-weight table (the Sec. 5 processor reduction).
///
/// Section 5 observes that the square step only ever needs partial weights
/// whose *slack* `s = (j-i) - (q-p)` — the number of leaves of the root
/// interval missing from the gap interval — is at most `B = 2*ceil(sqrt n)`:
/// the Fig. 1 chain decomposition peels at most `2*sqrt(n)` leaves off a
/// subtree before reaching a node `y` whose children are both small.
/// Storing only those entries shrinks the square step's input from O(n^4)
/// to O(n^2 B^2) cells, and the admissible split positions `r`/`s` per
/// entry to an O(B) window.
///
/// One subtlety the paper glosses: the terminal node `y` of the chain has
/// *both* children of size up to `i^2`, so pebbling `y` uses the
/// activate-form entries `pw(y, child)` whose slack is the sibling's
/// size — potentially far above `B`. The paper's own pebble-step bound
/// (O(n^{1.5}) pairs x O(n^2) gap candidates) implicitly keeps those
/// entries available; we store them in a dedicated child-gap side table
/// (written by a-activate, read by a-pebble and as square operands) —
/// without it, instances whose optimal trees contain balanced splits wider
/// than `B` converge to a wrong fixed point, which
/// `test_core_sublinear.cpp` demonstrates via the band-sensitivity tests.
///
/// Each child-gap family is keyed by a triple `(i, k, j)` with
/// `i < k < j <= n` (root `(i,j)`, inner boundary `k`), so the side stores
/// use tetrahedral `C(n+1,3)` indexing rather than a flat `(n+1)^3` cube —
/// a ~6x memory cut per family that also shrinks the per-iteration working
/// set the pebble step streams through.
///
/// Layout of the banded part: for root length `L` and left end `i`, the
/// block holds slacks `s = 1 .. min(B, L-1)` contiguously, each with its
/// `s + 1` gap offsets `o = p - i ∈ [0, s]`; all offsets have closed
/// forms, so addressing is O(1).
///
/// Plan/instance split: everything above is a function of `(n, B)` only,
/// so it lives in an immutable `BandedPwLayout` — offset tables, entry
/// list, cell counts. A `BandedPwTable` binds a (shared) layout to its own
/// mutable cell vectors; `SolvePlan` builds the layout once per shape and
/// every `SolveSession` table of that shape shares it, so per-instance
/// setup is a fill, not a rebuild.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pw_layout.hpp"
#include "core/quad.hpp"
#include "support/cost.hpp"

namespace subdp::core {

/// Immutable banded-layout geometry for one `(n, band)` shape: offset
/// tables, the square-entry list, and cell counts. Instances share one
/// layout via `shared_ptr`; only cell values are per-instance.
class BandedPwLayout {
 public:
  BandedPwLayout(std::size_t n, std::size_t band);

  /// Rehydrates a layout around snapshot-backed arrays (the mmap load
  /// path; see snapshot/plan_snapshot.hpp). The offset tables and cell
  /// counts are recomputed from `(n, band)` and *verified* against the
  /// provided arrays — any size or content mismatch throws, so a decoder
  /// can adopt the arrays only when they are exactly what a fresh build
  /// would produce. Entry *contents* are vouched for by the snapshot
  /// checksum; only their count is checked here.
  BandedPwLayout(std::size_t n, std::size_t band,
                 ShapeArray<std::size_t> length_base,
                 ShapeArray<std::size_t> tetra_base,
                 ShapeArray<Quad> entries);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t band() const noexcept { return band_; }

  /// Banded (square-target) cells; equals `entries().size()`.
  [[nodiscard]] std::size_t band_cell_count() const noexcept {
    return band_cell_count_;
  }

  /// Cells per child-gap side store (`C(n+1,3)` each).
  [[nodiscard]] std::size_t child_cell_count() const noexcept {
    return child_cell_count_;
  }

  /// Stored child gaps whose slack exceeds the band.
  [[nodiscard]] std::size_t out_of_band_child_count() const noexcept {
    return out_of_band_child_count_;
  }

  /// Total cells a table of this shape allocates (all three stores).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return band_cell_count_ + 2 * child_cell_count_;
  }

  /// Storage slot of an in-band square-step entry (index into a table's
  /// `raw_cells`); the layout-level form of `BandedPwTable::entry_slot`,
  /// usable before any table exists (engine-shape precomputation).
  [[nodiscard]] std::size_t entry_slot(std::size_t i, std::size_t j,
                                       std::size_t p, std::size_t q) const {
    return flat(i, j, p, (j - i) - (q - p));
  }

  /// Square-step targets (in-band quadruples), grouped by root length
  /// ascending with the quads of one root contiguous.
  [[nodiscard]] const ShapeArray<Quad>& entries() const noexcept {
    return entries_;
  }

  /// Cumulative block offsets per length (snapshot serialisation).
  [[nodiscard]] const ShapeArray<std::size_t>& length_base() const noexcept {
    return length_base_;
  }

  /// Child-store offsets per `i` (snapshot serialisation).
  [[nodiscard]] const ShapeArray<std::size_t>& tetra_base() const noexcept {
    return tetra_base_;
  }

  /// Cells for one `(L, i)` block: sum over s of (s+1) slots.
  [[nodiscard]] std::size_t block_size(std::size_t len) const {
    const std::size_t m = len - 1 < band_ ? len - 1 : band_;
    return m * (m + 3) / 2;
  }

  [[nodiscard]] std::size_t flat(std::size_t i, std::size_t j, std::size_t p,
                                 std::size_t s) const {
    const std::size_t len = j - i;
    SUBDP_ASSERT(len >= 2 && s >= 1 && s <= band_ && s <= len - 1);
    SUBDP_ASSERT(p >= i && p - i <= s);
    // Offset of slack s inside a block: sum_{s'=1..s-1} (s'+1).
    const std::size_t slack_offset = (s - 1) * (s + 2) / 2;
    return length_base_[len] + (i * block_size(len)) + slack_offset +
           (p - i);
  }

  /// Child-gap cell for root `(i,j)` and inner gap boundary `k`; gap
  /// `(i,k)` lives in the left family, gap `(k,j)` in the right (for long
  /// roots both can be out of band at the same `k`, so the families must
  /// not share storage). Both families are keyed by the ordered triple
  /// `(i, k, j)`, indexed tetrahedrally: triples sort by `i`, then `k`,
  /// then `j`, giving `C(n+1,3)` slots.
  [[nodiscard]] std::size_t child_flat(std::size_t i, std::size_t j,
                                       std::size_t k) const {
    SUBDP_ASSERT(i < k && k < j && j <= n_);
    // Within the `i` block, boundary `k` owns `n - k` slots (one per
    // `j > k`); offset of `k`'s row: sum_{b=i+1..k-1} (n - b).
    const std::size_t row = (k - i - 1) * (2 * n_ - i - k) / 2;
    return tetra_base_[i] + row + (j - k - 1);
  }

 private:
  /// Computes counts + offset tables from `(n, band)` alone (shared by
  /// both constructors; the rehydrating one verifies instead of adopting).
  void init_geometry(std::vector<std::size_t>& length_base,
                     std::vector<std::size_t>& tetra_base);

  std::size_t n_;
  std::size_t band_;
  std::size_t band_cell_count_ = 0;
  std::size_t child_cell_count_ = 0;
  std::size_t out_of_band_child_count_ = 0;
  ShapeArray<std::size_t> length_base_;  ///< Cumulative block offsets.
  ShapeArray<std::size_t> tetra_base_;   ///< Child-store offsets per `i`.
  ShapeArray<Quad> entries_;
};

/// Banded `pw'` storage; in-band entries plus child-gap entries of any
/// slack. Reads of anything else yield `kInfinity`.
class BandedPwTable {
 public:
  /// Storage-policy identifier (diagnostics, bench labels).
  static constexpr const char* kLayoutName = "banded";

  /// The immutable geometry this table's cells are addressed by.
  using Layout = BandedPwLayout;

  /// Builds the shared layout for one `(n, band)` shape.
  [[nodiscard]] static std::shared_ptr<const BandedPwLayout> make_layout(
      std::size_t n, std::size_t band) {
    return std::make_shared<const BandedPwLayout>(n, band);
  }

  /// `band` = maximal stored slack `B >= 1` for general gaps. Builds a
  /// private layout (one-shot use; plans share layouts instead).
  BandedPwTable(std::size_t n, std::size_t band)
      : BandedPwTable(make_layout(n, band)) {}

  /// Binds a shared layout; allocates only this instance's cells.
  explicit BandedPwTable(std::shared_ptr<const BandedPwLayout> layout);

  [[nodiscard]] const BandedPwLayout& layout() const noexcept {
    return *layout_;
  }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }

  /// The slack bound `B` (square-step candidates stay within it).
  [[nodiscard]] std::size_t max_slack() const noexcept { return band_; }

  /// Reads `pw'(i,j,p,q)`: 0 for identity gaps; the banded cell when the
  /// slack is within the band; the child-gap cell when the gap shares an
  /// endpoint with the root (`p == i` or `q == j`); `kInfinity` otherwise.
  [[nodiscard]] Cost get(std::size_t i, std::size_t j, std::size_t p,
                         std::size_t q) const {
    SUBDP_ASSERT(i <= p && p < q && q <= j && j <= n_);
    if (p == i && q == j) return 0;
    const std::size_t s = (j - i) - (q - p);
    if (s <= band_) return cells_[layout_->flat(i, j, p, s)];
    if (p == i) return left_child_cells_[layout_->child_flat(i, j, q)];
    if (q == j) return right_child_cells_[layout_->child_flat(i, j, p)];
    return kInfinity;
  }

  /// Writes a stored entry; `stores(i,j,p,q)` must hold.
  void set(std::size_t i, std::size_t j, std::size_t p, std::size_t q,
           Cost value) {
    SUBDP_ASSERT(stores(i, j, p, q));
    const std::size_t s = (j - i) - (q - p);
    if (s <= band_) {
      cells_[layout_->flat(i, j, p, s)] = value;
    } else if (p == i) {
      left_child_cells_[layout_->child_flat(i, j, q)] = value;
    } else {
      right_child_cells_[layout_->child_flat(i, j, p)] = value;
    }
  }

  /// True iff the entry is materialised: in band, or a child gap.
  [[nodiscard]] bool stores(std::size_t i, std::size_t j, std::size_t p,
                            std::size_t q) const {
    if (!(i <= p && p < q && q <= j)) return false;
    if (p == i && q == j) return false;
    if ((j - i) - (q - p) <= band_) return true;
    return p == i || q == j;
  }

  /// Linearised address for CREW-conformance reporting.
  [[nodiscard]] std::uint64_t address(std::size_t i, std::size_t j,
                                      std::size_t p, std::size_t q) const {
    const std::size_t s = (j - i) - (q - p);
    if (s <= band_) {
      return static_cast<std::uint64_t>(layout_->flat(i, j, p, s));
    }
    if (p == i) {
      return kLeftChildTag |
             static_cast<std::uint64_t>(layout_->child_flat(i, j, q));
    }
    return kRightChildTag |
           static_cast<std::uint64_t>(layout_->child_flat(i, j, p));
  }

  /// Storage slot of a stored in-band (square-step) entry; an index into
  /// `raw_cells`. Lets the engine apply a write log without re-deriving
  /// the banded layout. Child-gap entries are not square targets and have
  /// no slot here.
  [[nodiscard]] std::size_t entry_slot(std::size_t i, std::size_t j,
                                       std::size_t p, std::size_t q) const {
    const std::size_t s = (j - i) - (q - p);
    SUBDP_ASSERT(s <= band_);
    return layout_->flat(i, j, p, s);
  }

  /// Incremental reader over `pw'(i,j,r,q)` for ascending `r` starting at
  /// `r0` (the HLV r-window's first operand): the slack grows by one per
  /// step, so the slot advances by `s+2, s+3, ...`.
  [[nodiscard]] PwWindowCursor r_window_cursor(std::size_t i, std::size_t j,
                                               std::size_t r0,
                                               std::size_t q) const {
    const std::size_t s = (r0 - i) + (j - q);
    return {cells_.data() + layout_->flat(i, j, r0, s),
            static_cast<std::ptrdiff_t>(s + 2), 1};
  }

  /// Incremental reader over `pw'(i,j,p,s)` for ascending `s` starting at
  /// `s0` (the HLV s-window's first operand): the slack shrinks by one per
  /// step, so the slot retreats by `s, s-1, ...`.
  [[nodiscard]] PwWindowCursor s_window_cursor(std::size_t i, std::size_t j,
                                               std::size_t p,
                                               std::size_t s0) const {
    const std::size_t s = (j - i) - (s0 - p);
    return {cells_.data() + layout_->flat(i, j, p, s),
            -static_cast<std::ptrdiff_t>(s), 1};
  }

  /// Direct in-band cell storage (write-log apply path, cursor reads).
  [[nodiscard]] Cost* raw_cells() noexcept { return cells_.data(); }
  [[nodiscard]] const Cost* raw_cells() const noexcept {
    return cells_.data();
  }

  /// Allocated cells across all stores (E7 memory metric).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cells_.size() + left_child_cells_.size() +
           right_child_cells_.size();
  }

  /// Meaningful stored entries: banded cells plus out-of-band child gaps.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entries().size() + layout_->out_of_band_child_count();
  }

  /// Square-step targets (in-band quadruples), grouped by root length
  /// ascending. Child-gap entries are not square targets: their activate
  /// value `f + w(child)` is exact once the children have converged, and
  /// keeping them out preserves the O(n^3 * B) square work bound.
  [[nodiscard]] const ShapeArray<Quad>& entries() const noexcept {
    return layout_->entries();
  }

  /// Enumerates the stored gaps `(p,q)` of root `(i,j)` (pebble step):
  /// all in-band gaps, plus the out-of-band child gaps.
  template <class Fn>
  void for_each_gap(std::size_t i, std::size_t j, Fn&& fn) const {
    const std::size_t len = j - i;
    const std::size_t max_s = len - 1 < band_ ? len - 1 : band_;
    for (std::size_t s = 1; s <= max_s; ++s) {
      const std::size_t gap_len = len - s;
      for (std::size_t o = 0; o <= s; ++o) {
        fn(i + o, i + o + gap_len);
      }
    }
    for (std::size_t s = band_ + 1; s <= len - 1; ++s) {
      fn(i, j - s);      // left child gap (i, k) with slack s = j - k
      fn(i + s, j);      // right child gap (k, j) with slack s = k - i
    }
  }

  /// Enumerates the stored gaps of root `(i,j)` as arithmetic-progression
  /// runs (the fast pebble scan's reader; same gap set as `for_each_gap`).
  /// The banded block of a root is one contiguous cell range — slack `s`
  /// holds offsets `o = p - i in [0, s]` at consecutive slots — so each
  /// slack becomes a run with cell stride 1; the gaps `(i+o, i+o+len-s)`
  /// put the matching `w` slots on stride `n+2`. Past the band, each
  /// child-gap side store contributes one run over its boundary `k`: the
  /// tetrahedral `child_flat` is quadratic in `k`, so consecutive slots
  /// differ by `n-k` (left, descending `k`) / `n-k-1` (right, ascending
  /// `k`) — arithmetic progressions with `cell_dstep = -1`.
  template <class Fn>
  void for_each_gap_run(std::size_t i, std::size_t j, Fn&& fn) const {
    const std::size_t len = j - i;
    const std::size_t stride = n_ + 1;
    const std::size_t max_s = len - 1 < band_ ? len - 1 : band_;
    const Cost* block = cells_.data() + layout_->flat(i, j, i, 1);
    std::size_t w0 = i * stride + (j - 1);  // gap (i, j-1): s = 1, o = 0
    for (std::size_t s = 1; s <= max_s; ++s) {
      fn(PwGapRun{block, 1, 0, w0,
                  static_cast<std::ptrdiff_t>(stride + 1), s + 1});
      block += s + 1;
      --w0;  // next slack starts at gap (i, j-s-1)
    }
    if (max_s >= len - 1) return;
    const std::size_t child_count = (len - 1) - band_;
    const std::size_t kl = j - band_ - 1;  // left boundaries kl down to i+1
    fn(PwGapRun{left_child_cells_.data() + layout_->child_flat(i, j, kl),
                -static_cast<std::ptrdiff_t>(n_ - kl), -1,
                i * stride + kl, -1, child_count});
    const std::size_t kr = i + band_ + 1;  // right boundaries kr up to j-1
    fn(PwGapRun{right_child_cells_.data() + layout_->child_flat(i, j, kr),
                static_cast<std::ptrdiff_t>(n_ - kr - 1), -1,
                kr * stride + j, static_cast<std::ptrdiff_t>(stride),
                child_count});
  }

  /// Resets every stored entry to `kInfinity` (in place, no reallocation).
  void reset();

  /// Bulk copy from a same-shape table (square-step double buffering).
  void copy_from(const BandedPwTable& other);

 private:
  static constexpr std::uint64_t kLeftChildTag = std::uint64_t{1} << 60;
  static constexpr std::uint64_t kRightChildTag = std::uint64_t{1} << 61;

  std::shared_ptr<const BandedPwLayout> layout_;
  std::size_t n_;     ///< Cached from the layout (hot-path locality).
  std::size_t band_;  ///< Cached from the layout (hot-path locality).
  std::vector<Cost> cells_;
  std::vector<Cost> left_child_cells_;
  std::vector<Cost> right_child_cells_;
};

static_assert(PwStoragePolicy<BandedPwTable>);

}  // namespace subdp::core
