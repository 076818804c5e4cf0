#include "exec/executor.hpp"

#include <stdexcept>
#include <string>

#include "exec/backends.hpp"

namespace sp::exec {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kFiber:
      return "fiber";
    case Backend::kThreads:
      return "threads";
    case Backend::kProcess:
      return "process";
  }
  return "?";
}

Backend parse_backend(std::string_view name) {
  if (name == "fiber") return Backend::kFiber;
  if (name == "threads") return Backend::kThreads;
  if (name == "process") return Backend::kProcess;
  throw std::invalid_argument(
      "unknown execution backend '" + std::string(name) +
      "' (expected 'fiber', 'threads', or 'process')");
}

std::unique_ptr<Executor> Executor::make(const ExecOptions& options) {
  switch (options.backend) {
    case Backend::kFiber:
    case Backend::kProcess:
      return detail::make_fiber_executor(options);
    case Backend::kThreads:
      return detail::make_thread_executor(options);
  }
  throw std::invalid_argument("unknown execution backend");
}

}  // namespace sp::exec
