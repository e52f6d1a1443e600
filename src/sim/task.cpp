#include "sim/task.hpp"

#include "common/check.hpp"

namespace archgraph::sim {

SimThread& SimThread::operator=(SimThread&& other) noexcept {
  if (this != &other) {
    if (handle_) {
      handle_.destroy();
    }
    handle_ = other.handle_;
    other.handle_ = nullptr;
  }
  return *this;
}

SimThread::~SimThread() {
  if (handle_) {
    handle_.destroy();
  }
}

std::coroutine_handle<> SimThread::bind(ThreadState* state) {
  AG_CHECK(handle_ != nullptr, "binding an empty SimThread");
  handle_.promise().state = state;
  std::coroutine_handle<> out = handle_;
  handle_ = nullptr;
  return out;
}

}  // namespace archgraph::sim
