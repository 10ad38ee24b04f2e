// Tests for the two pw-table layouts (core/pw_dense.hpp,
// core/pw_banded.hpp): addressing, band semantics, the Sec. 5 cell-count
// reduction, dense/banded agreement inside the band, and the
// storage-policy surface (pw_layout.hpp) — overflow-checked sizing and
// the incremental window cursors the engine's fast square kernel reads
// through.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/pw_banded.hpp"
#include "core/pw_dense.hpp"
#include "core/pw_layout.hpp"
#include "support/stats.hpp"

namespace subdp::core {
namespace {

static_assert(PwStoragePolicy<DensePwTable>);
static_assert(PwStoragePolicy<BandedPwTable>);

TEST(DensePwTable, IdentityGapIsZero) {
  DensePwTable t(6);
  EXPECT_EQ(t.get(1, 4, 1, 4), 0);
  EXPECT_EQ(t.get(0, 6, 0, 6), 0);
  EXPECT_EQ(t.get(2, 3, 2, 3), 0);  // leaf identity
}

TEST(DensePwTable, UnwrittenEntriesAreInfinite) {
  DensePwTable t(6);
  EXPECT_EQ(t.get(0, 6, 2, 4), kInfinity);
  EXPECT_EQ(t.get(1, 5, 1, 2), kInfinity);
}

TEST(DensePwTable, SetThenGetRoundTrips) {
  DensePwTable t(8);
  t.set(0, 8, 3, 5, 42);
  t.set(1, 7, 1, 6, 17);
  EXPECT_EQ(t.get(0, 8, 3, 5), 42);
  EXPECT_EQ(t.get(1, 7, 1, 6), 17);
  EXPECT_EQ(t.get(0, 8, 3, 6), kInfinity);  // neighbours untouched
}

TEST(DensePwTable, EntryCountMatchesClosedForm) {
  // Per (i,j) of length L: C(L+1,2) - 1 gaps.
  for (const std::size_t n : {2u, 3u, 5u, 9u}) {
    DensePwTable t(n);
    std::size_t expected = 0;
    for (std::size_t len = 2; len <= n; ++len) {
      expected += (n - len + 1) * (len * (len + 1) / 2 - 1);
    }
    EXPECT_EQ(t.entry_count(), expected) << "n=" << n;
    EXPECT_EQ(t.entries().size(), expected);
  }
}

TEST(DensePwTable, EntriesAreUniqueAndValid) {
  DensePwTable t(7);
  std::set<std::uint64_t> seen;
  for (const Quad& e : t.entries()) {
    EXPECT_LE(e.i, e.p);
    EXPECT_LT(e.p, e.q);
    EXPECT_LE(e.q, e.j);
    EXPECT_FALSE(e.p == e.i && e.q == e.j);
    EXPECT_TRUE(seen.insert(t.address(e.i, e.j, e.p, e.q)).second);
  }
}

TEST(DensePwTable, RejectsOversizedN) {
  // The cap throws before any allocation, so this is cheap even though
  // kMaxDenseN is now 192.
  EXPECT_THROW(DensePwTable t(DensePwTable::kMaxDenseN + 1),
               std::invalid_argument);
}

TEST(DensePwTable, CapIsWellPastTheOldCubeLimit) {
  // The seed's (n+1)^4 cube capped dense instances at 64; the
  // entries-indexed layout lifts that.
  EXPECT_GE(DensePwTable::kMaxDenseN, 128u);
}

TEST(DensePwTable, AddressingIsInjectiveAndInBounds) {
  const std::size_t n = 12;
  DensePwTable t(n);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if (p == i && q == j) continue;
          const std::uint64_t addr = t.address(i, j, p, q);
          EXPECT_LT(addr, t.cell_count());
          EXPECT_TRUE(seen.insert(addr).second)
              << "(" << i << "," << j << "," << p << "," << q << ")";
          EXPECT_EQ(t.entry_slot(i, j, p, q), addr);
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), t.entry_count());
}

TEST(DensePwTable, CellCountIsEntriesPlusOneIdentitySlotPerRoot) {
  // The entries-indexed layout wastes exactly the identity slot per root
  // (kept so gap addressing stays branch-free) — a ~24x cut from the old
  // (n+1)^4 cube.
  for (const std::size_t n : {4u, 9u, 17u}) {
    DensePwTable t(n);
    std::size_t roots = 0;
    for (std::size_t len = 2; len <= n; ++len) roots += n - len + 1;
    EXPECT_EQ(t.cell_count(), t.entry_count() + roots) << "n=" << n;
    const std::size_t cube = (n + 1) * (n + 1) * (n + 1) * (n + 1);
    EXPECT_LT(t.cell_count() * 10, cube) << "n=" << n;
  }
}

TEST(PwLayout, CheckedSizeArithmeticThrowsInsteadOfWrapping) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(checked_size_mul(3, 7), 21u);
  EXPECT_EQ(checked_size_mul(kMax, 0), 0u);
  EXPECT_EQ(checked_size_add(kMax - 1, 1), kMax);
  EXPECT_THROW((void)checked_size_mul(kMax / 2, 3), std::invalid_argument);
  EXPECT_THROW((void)checked_size_add(kMax, 1), std::invalid_argument);
}

// ---- Window cursors ----

/// Replicates the engine's HLV window and walks both first-operand
/// cursors, plus the second-operand streams the root-panel kernel reads
/// (`r_window_cursor(r, q, r+1, q)` over `p`, `s_window_cursor(p, s, p,
/// q)` over the targets' right ends), comparing every value against the
/// general `get`. Exercised for both layouts below.
template <class Table>
void expect_cursors_match_get(Table& t) {
  const std::size_t n = t.n();
  const std::size_t maxs = t.max_slack();
  // Make every stored cell distinct so an addressing slip cannot alias to
  // the right value.
  Cost v = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
          t.set(i, j, p, q, v++);
        }
      }
    }
  }
  for (const Quad& e : t.entries()) {
    const std::size_t i = e.i, j = e.j, p = e.p, q = e.q;
    const std::size_t r_lo = p > maxs && p - maxs > i ? p - maxs : i;
    const std::size_t s_hi = q + maxs < j ? q + maxs : j;
    std::size_t r = r_lo;
    if (r == i && q == j) ++r;  // identity operand: not an in-band cell
    if (r < p) {
      PwWindowCursor cur = t.r_window_cursor(i, j, r, q);
      for (; r < p; ++r) {
        ASSERT_EQ(cur.value(), t.get(i, j, r, q))
            << "r-cursor (" << i << "," << j << "," << r << "," << q << ")";
        cur.advance();
        PwWindowCursor second = t.r_window_cursor(r, q, r + 1, q);
        for (std::size_t pp = r + 1; pp <= p; ++pp) {
          ASSERT_EQ(second.value(), t.get(r, q, pp, q))
              << "r-second (" << r << "," << q << "," << pp << "," << q
              << ")";
          second.advance();
        }
      }
    }
    std::size_t s_end = s_hi;
    if (p == i && s_end == j) --s_end;  // identity operand
    if (q < s_end) {
      PwWindowCursor cur = t.s_window_cursor(i, j, p, q + 1);
      for (std::size_t s = q + 1; s <= s_end; ++s) {
        ASSERT_EQ(cur.value(), t.get(i, j, p, s))
            << "s-cursor (" << i << "," << j << "," << p << "," << s << ")";
        cur.advance();
        PwWindowCursor second = t.s_window_cursor(p, s, p, q);
        for (std::size_t qq = q; qq < s; ++qq) {
          ASSERT_EQ(second.value(), t.get(p, s, p, qq))
              << "s-second (" << p << "," << s << "," << p << "," << qq
              << ")";
          second.advance();
        }
      }
    }
  }
}

TEST(PwLayoutCursors, DenseWindowsMatchGeneralGet) {
  DensePwTable t(11);
  expect_cursors_match_get(t);
}

TEST(PwLayoutCursors, BandedWindowsMatchGeneralGet) {
  BandedPwTable t(13, 4);
  expect_cursors_match_get(t);
}

TEST(PwLayoutCursors, BandedWideBandWindowsMatchGeneralGet) {
  BandedPwTable t(10, 10);
  expect_cursors_match_get(t);
}

// ---- Gap runs (the fast pebble scan's reader) ----

/// Fills every stored cell with a distinct value, then — root by root —
/// walks `for_each_gap_run`, decoding each run's `w` slots back to gap
/// coordinates (`w_slot = p*(n+1)+q`, advanced by `w_step`) and its
/// stored values through the arithmetic-progression cell cursor, and
/// compares the collected `(p, q, value)` triples against the reference
/// `for_each_gap` + `get` enumeration. Equality of the sorted triple sets
/// proves the runs cover exactly the stored gaps, address the right cells
/// and pair each with the right `w` slot.
template <class Table>
void expect_gap_runs_match_for_each_gap(Table& t) {
  const std::size_t n = t.n();
  Cost v = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
          t.set(i, j, p, q, v++);
        }
      }
    }
  }
  using GapTriple = std::tuple<std::size_t, std::size_t, Cost>;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      std::vector<GapTriple> ref;
      t.for_each_gap(i, j, [&](std::size_t p, std::size_t q) {
        ref.emplace_back(p, q, t.get(i, j, p, q));
      });
      std::vector<GapTriple> runs;
      t.for_each_gap_run(i, j, [&](const PwGapRun& run) {
        const Cost* cell = run.cell;
        std::ptrdiff_t step = run.cell_step;
        std::ptrdiff_t w = static_cast<std::ptrdiff_t>(run.w_slot);
        for (std::size_t k = 0; k < run.count; ++k) {
          const std::size_t slot = static_cast<std::size_t>(w);
          runs.emplace_back(slot / (n + 1), slot % (n + 1), *cell);
          cell += step;
          step += run.cell_dstep;
          w += run.w_step;
        }
      });
      std::sort(ref.begin(), ref.end());
      std::sort(runs.begin(), runs.end());
      ASSERT_EQ(runs, ref) << "root (" << i << "," << j << ")";
    }
  }
}

TEST(PwGapRuns, DenseRunsMatchForEachGap) {
  DensePwTable t(11);
  expect_gap_runs_match_for_each_gap(t);
}

TEST(PwGapRuns, BandedRunsMatchForEachGap) {
  BandedPwTable t(13, 4);
  expect_gap_runs_match_for_each_gap(t);
}

TEST(PwGapRuns, BandedWideBandRunsMatchForEachGap) {
  // band >= n - 1: every gap in band, no child-gap side runs anywhere.
  BandedPwTable t(10, 10);
  expect_gap_runs_match_for_each_gap(t);
}

TEST(PwGapRuns, BandedNarrowestBandRunsMatchForEachGap) {
  // band = 1: the slack runs degenerate to one per root and nearly every
  // child gap lives in the tetrahedral side stores.
  BandedPwTable t(9, 1);
  expect_gap_runs_match_for_each_gap(t);
}

TEST(PwGapRuns, EdgeSizesMatchForEachGap) {
  // Smallest meaningful tables: a single root (n = 2) and the first size
  // with length-3 roots.
  DensePwTable d2(2), d3(3);
  expect_gap_runs_match_for_each_gap(d2);
  expect_gap_runs_match_for_each_gap(d3);
  BandedPwTable b2(2, 1), b3(3, 1), b3w(3, 3);
  expect_gap_runs_match_for_each_gap(b2);
  expect_gap_runs_match_for_each_gap(b3);
  expect_gap_runs_match_for_each_gap(b3w);
}

TEST(PwGapRuns, PaperBandMatchesForEachGap) {
  // The band the solver actually uses (B = 2 ceil(sqrt n)).
  const std::size_t n = 17;
  BandedPwTable t(n, support::two_ceil_sqrt(n));
  expect_gap_runs_match_for_each_gap(t);
}

TEST(DensePwTable, ResetRestoresInfinity) {
  DensePwTable t(5);
  t.set(0, 5, 1, 3, 9);
  t.reset();
  EXPECT_EQ(t.get(0, 5, 1, 3), kInfinity);
}

TEST(DensePwTable, CopyFromDuplicatesContents) {
  DensePwTable a(5), b(5);
  a.set(0, 5, 2, 4, 7);
  b.copy_from(a);
  EXPECT_EQ(b.get(0, 5, 2, 4), 7);
  a.set(0, 5, 2, 4, 9);
  EXPECT_EQ(b.get(0, 5, 2, 4), 7);  // deep copy
}

// ---- Banded ----

TEST(BandedPwTable, InBandBehavesLikeDense) {
  BandedPwTable t(10, 4);
  EXPECT_EQ(t.get(0, 10, 0, 10), 0);           // identity
  EXPECT_EQ(t.get(2, 8, 3, 7), kInfinity);     // slack 2, unwritten
  t.set(2, 8, 3, 7, 55);                       // slack 2 <= 4
  EXPECT_EQ(t.get(2, 8, 3, 7), 55);
}

TEST(BandedPwTable, OutOfBandInteriorReadsAreInfinite) {
  BandedPwTable t(10, 2);
  // slack (10-0)-(4-3) = 9 > 2 and the gap touches neither endpoint.
  EXPECT_FALSE(t.stores(0, 10, 3, 4));
  EXPECT_EQ(t.get(0, 10, 3, 4), kInfinity);
}

TEST(BandedPwTable, OutOfBandChildGapsAreStored) {
  // The terminal pebble of a balanced node needs activate-form entries of
  // any slack: gaps sharing an endpoint with the root stay materialised.
  BandedPwTable t(10, 2);
  EXPECT_TRUE(t.stores(0, 10, 0, 5));  // left child gap, slack 5 > B
  EXPECT_TRUE(t.stores(0, 10, 5, 10));  // right child gap, slack 5 > B
  t.set(0, 10, 0, 5, 21);
  t.set(0, 10, 5, 10, 22);  // same split, different family: no collision
  EXPECT_EQ(t.get(0, 10, 0, 5), 21);
  EXPECT_EQ(t.get(0, 10, 5, 10), 22);
}

TEST(BandedPwTable, StoresBandPlusChildGaps) {
  const std::size_t n = 9, band = 3;
  BandedPwTable t(n, band);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if (p == i && q == j) continue;
          const bool in_band = (j - i) - (q - p) <= band;
          const bool child_gap = p == i || q == j;
          EXPECT_EQ(t.stores(i, j, p, q), in_band || child_gap);
          if (in_band || child_gap) ++expected;
        }
      }
    }
  }
  EXPECT_EQ(t.entry_count(), expected);
}

TEST(BandedPwTable, AddressingIsInjective) {
  const std::size_t n = 12, band = 5;
  BandedPwTable t(n, band);
  std::set<std::uint64_t> seen;
  // Every stored entry (in-band plus child gaps) has a distinct address.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if (p == i && q == j) continue;
          if (!t.stores(i, j, p, q)) continue;
          EXPECT_TRUE(seen.insert(t.address(i, j, p, q)).second)
              << "(" << i << "," << j << "," << p << "," << q << ")";
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), t.entry_count());
}

TEST(BandedPwTable, RoundTripsEveryStoredEntry) {
  const std::size_t n = 11, band = 4;
  BandedPwTable t(n, band);
  Cost v = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
          t.set(i, j, p, q, v++);
        }
      }
    }
  }
  v = 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
          ASSERT_EQ(t.get(i, j, p, q), v++);
        }
      }
    }
  }
}

TEST(BandedPwTable, ForEachGapEnumeratesExactlyTheStoredGaps) {
  const std::size_t n = 10, band = 3;
  BandedPwTable t(n, band);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j <= n; ++j) {
      std::set<std::pair<std::size_t, std::size_t>> enumerated;
      t.for_each_gap(i, j, [&](std::size_t p, std::size_t q) {
        EXPECT_TRUE(enumerated.emplace(p, q).second)
            << "duplicate gap (" << p << "," << q << ")";
        EXPECT_TRUE(t.stores(i, j, p, q));
      });
      std::size_t stored = 0;
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q <= j; ++q) {
          if ((p == i && q == j) || !t.stores(i, j, p, q)) continue;
          ++stored;
        }
      }
      EXPECT_EQ(enumerated.size(), stored) << "(" << i << "," << j << ")";
    }
  }
}

TEST(BandedPwTable, CellCountIsQuadraticallySmallerThanDense) {
  // Sec. 5: O(n^2 B^2) vs O(n^4) meaningful entries. Compare against the
  // closed-form dense count so we do not have to allocate the dense cube.
  auto dense_entries = [](std::size_t n) {
    std::size_t total = 0;
    for (std::size_t len = 2; len <= n; ++len) {
      total += (n - len + 1) * (len * (len + 1) / 2 - 1);
    }
    return total;
  };
  const std::size_t n = 128;
  BandedPwTable banded(n, support::two_ceil_sqrt(n));
  EXPECT_LT(banded.entry_count() * 3, dense_entries(n));
  // The ratio widens with n (~ n/B^2-fold):
  const std::size_t m = 48;
  BandedPwTable banded_small(m, support::two_ceil_sqrt(m));
  const double ratio_small =
      static_cast<double>(dense_entries(m)) /
      static_cast<double>(banded_small.entry_count());
  const double ratio_large = static_cast<double>(dense_entries(n)) /
                             static_cast<double>(banded.entry_count());
  EXPECT_GT(ratio_large, ratio_small);
}

TEST(BandedPwTable, WideBandCoversEverything) {
  const std::size_t n = 8;
  BandedPwTable banded(n, n);
  DensePwTable dense(n);
  EXPECT_EQ(banded.entry_count(), dense.entry_count());
}

TEST(BandedPwTable, RejectsZeroBand) {
  EXPECT_THROW(BandedPwTable(5, 0), std::invalid_argument);
}

}  // namespace
}  // namespace subdp::core
