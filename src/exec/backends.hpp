// Internal: backend constructors for Executor::make. Not installed API.
#pragma once

#include <memory>

#include "exec/executor.hpp"

namespace sp::exec::detail {

std::unique_ptr<Executor> make_fiber_executor(const ExecOptions& options);
std::unique_ptr<Executor> make_thread_executor(const ExecOptions& options);

}  // namespace sp::exec::detail
