#include "pram/machine.hpp"

#include <atomic>

#include "pram/parallel.hpp"
#include "support/stats.hpp"

namespace subdp::pram {

Machine::Machine(MachineOptions options) : options_(options) {
  if (options_.check_crew) {
    crew_ = std::make_unique<CrewChecker>();
  }
}

std::uint64_t Machine::step(const std::string& label, std::int64_t n,
                            const StepBody& body) {
  if (n <= 0) return 0;
  if (crew_) crew_->begin_step(label);

  std::atomic<std::uint64_t> total_ops{0};
  std::atomic<std::uint64_t> max_ops{0};

  parallel_for_blocked(
      options_.backend, 0, n, 0,
      [&](std::int64_t lo, std::int64_t hi) {
        std::uint64_t block_ops = 0;
        std::uint64_t block_max = 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          const std::uint64_t ops = body(i);
          block_ops += ops;
          if (ops > block_max) block_max = ops;
        }
        total_ops.fetch_add(block_ops, std::memory_order_relaxed);
        std::uint64_t seen = max_ops.load(std::memory_order_relaxed);
        while (seen < block_max &&
               !max_ops.compare_exchange_weak(seen, block_max,
                                              std::memory_order_relaxed)) {
        }
      });

  if (crew_) crew_->end_step();

  const std::uint64_t work = total_ops.load();
  const std::uint64_t widest = max_ops.load();
  // A processor scanning m candidates is modelled as a log-depth binary
  // reduction over m leaves; a step where every processor does O(1) work
  // costs unit depth.
  const std::uint64_t depth =
      1 + (widest > 1 ? support::ceil_log2(static_cast<std::size_t>(widest))
                      : 0);
  costs_.add_step(label, work, depth);
  return work;
}

void Machine::reset() {
  costs_.reset();
  if (crew_) crew_->reset();
}

}  // namespace subdp::pram
