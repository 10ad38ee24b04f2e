#include "pram/backend.hpp"

#include "pram/thread_pool.hpp"

namespace subdp::pram {

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kSerial:
      return "serial";
    case Backend::kThreadPool:
      return "threads";
  }
  return "unknown";
}

std::optional<Backend> backend_from_string(const std::string& name) noexcept {
  if (name == "serial") return Backend::kSerial;
  if (name == "threads" || name == "threadpool") return Backend::kThreadPool;
  return std::nullopt;
}

bool openmp_available() noexcept { return false; }

Backend default_backend() noexcept { return Backend::kThreadPool; }

unsigned backend_parallelism(Backend backend) noexcept {
  switch (backend) {
    case Backend::kSerial:
      return 1;
    case Backend::kThreadPool:
      return ThreadPool::shared().parallelism();
  }
  return 1;
}

}  // namespace subdp::pram
