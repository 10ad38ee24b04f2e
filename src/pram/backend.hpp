#pragma once

/// \file backend.hpp
/// Execution backends for PRAM step emulation.
///
/// A CREW PRAM step "for all x in parallel do ..." is *executed* on the host
/// by one of two interchangeable backends: a plain loop or the shared
/// thread pool. Results are identical across backends by construction
/// (each logical processor owns its output cell), which the test suite
/// verifies; accounting (see `CostModel`) is backend-independent.

#include <optional>
#include <string>

namespace subdp::pram {

/// How parallel steps are run on the host machine.
enum class Backend {
  kSerial,      ///< Plain loop; reference semantics, useful for debugging.
  kThreadPool,  ///< Persistent std::thread pool (subdp's own fork-join).
};

/// Human-readable backend name ("serial", "threads").
[[nodiscard]] const char* to_string(Backend backend) noexcept;

/// Parses a backend name; accepts the strings produced by `to_string`.
[[nodiscard]] std::optional<Backend> backend_from_string(
    const std::string& name) noexcept;

/// Always false: the library has no OpenMP backend. Kept only because the
/// repository benchmark (`perfbench/main.cpp`) prints it in its metadata.
[[nodiscard]] bool openmp_available() noexcept;

/// The preferred backend on this build (thread pool; it is always available).
[[nodiscard]] Backend default_backend() noexcept;

/// Host threads a parallel loop on `backend` executes across: 1 for
/// serial, the shared pool's parallelism for the thread pool (bench rows
/// record this so runs from differently-sized hosts stay distinguishable).
[[nodiscard]] unsigned backend_parallelism(Backend backend) noexcept;

}  // namespace subdp::pram
