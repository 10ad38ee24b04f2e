#pragma once

/// \file machine.hpp
/// The CREW PRAM simulator facade.
///
/// `Machine` ties together execution (a `Backend`), accounting
/// (`CostModel`) and optional conformance checking (`CrewChecker`). A PRAM
/// program is expressed as a sequence of *steps*: `step(label, n, body)`
/// runs `body(i)` for every logical processor `i in [0, n)` in parallel on
/// the host, while the body reports how many elementary operations (table
/// reads + min/add updates) processor `i` performed. The ledger then
/// charges `work = sum(ops)` and `depth = 1 + ceil(log2(max ops))` — the
/// cost of performing each processor's candidate scan as a balanced binary
/// reduction, which is how the paper obtains its `O(n^k / log n)` processor
/// bounds via Brent's theorem.
///
/// Two execution paths share these semantics:
///  * `step` — the checked path (`core::EngineKind::kReference`): the body
///    is a `std::function` reporting per-processor op counts; every step
///    is charged to the ledger and observed by the CREW checker when on.
///  * `run_blocks` — the fast path (`core::EngineKind::kFast`): the body is
///    a template parameter invoked once per block, so the per-cell kernel
///    inlines into the worker loop, and nothing is charged. Results are
///    identical by construction; only the accounting differs.

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "pram/backend.hpp"
#include "pram/cost_model.hpp"
#include "pram/crew_checker.hpp"
#include "pram/parallel.hpp"

namespace subdp::pram {

/// Configuration for a `Machine`.
struct MachineOptions {
  Backend backend = default_backend();
  bool check_crew = false;  ///< Enable write-write conflict detection.

  /// Member-wise, in declaration order (part of `serve::PlanKey`).
  auto operator<=>(const MachineOptions&) const = default;
};

/// Executes and accounts synchronous PRAM steps.
class Machine {
 public:
  explicit Machine(MachineOptions options = {});

  /// The per-processor body: receives the logical processor index and
  /// returns the number of elementary operations it performed (>= 0; a
  /// pure assignment counts as 1).
  using StepBody = std::function<std::uint64_t(std::int64_t)>;

  /// Runs one synchronous PRAM step with `n` logical processors and
  /// charges it to the ledger. Returns the total work performed.
  std::uint64_t step(const std::string& label, std::int64_t n,
                     const StepBody& body);

  /// Reports a write to linearised cell `address` from inside a step body;
  /// a no-op unless CREW checking is enabled.
  void note_write(std::uint64_t address) {
    if (crew_) crew_->record_write(address);
  }

  /// Fast-path step: runs `body(block_begin, block_end)` over `[0, n)` on
  /// the configured backend with no ledger or CREW bookkeeping. The body
  /// type is a template parameter, so per-cell work inlines into the
  /// worker loop. Coverage and synchronisation at return match `step`.
  template <class BlockBody>
  void run_blocks(std::int64_t n, BlockBody&& body) {
    if (n <= 0) return;
    parallel_for_blocked(options_.backend, 0, n, 0,
                         std::forward<BlockBody>(body));
  }

  [[nodiscard]] Backend backend() const noexcept {
    return options_.backend;
  }
  [[nodiscard]] const CostModel& costs() const noexcept { return costs_; }
  [[nodiscard]] CostModel& costs() noexcept { return costs_; }

  /// Null unless `check_crew` was set.
  [[nodiscard]] const CrewChecker* crew() const noexcept {
    return crew_.get();
  }
  [[nodiscard]] CrewChecker* crew() noexcept { return crew_.get(); }

  /// Clears the ledger (and CREW tallies).
  void reset();

 private:
  MachineOptions options_;
  CostModel costs_;
  std::unique_ptr<CrewChecker> crew_;
};

}  // namespace subdp::pram
