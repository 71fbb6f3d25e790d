#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace udring {

std::size_t resolve_workers(std::size_t count, std::size_t workers) noexcept {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::max<std::size_t>(
      1, std::min(workers, std::max<std::size_t>(1, count)));
}

std::size_t parallel_for_workers(
    std::size_t count, std::size_t workers,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  workers = resolve_workers(count, workers);

  // Shard by atomic work-stealing over indices. Each index owns its output
  // slot, so the parallel phase shares no mutable state beyond the cursor;
  // all order-sensitive folding happens after the join. An exception from fn
  // would std::terminate the process if it escaped a worker thread, so the
  // first one is captured and rethrown on the calling thread after the join
  // (the remaining workers drain the cursor and stop).
  std::atomic<std::size_t> cursor{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&](std::size_t worker) {
    for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
         i < count; i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      try {
        fn(worker, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        cursor.store(count, std::memory_order_relaxed);  // stop all workers
        return;
      }
    }
  };
  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back(work, w);
    }
    for (std::thread& thread : pool) thread.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return workers;
}

}  // namespace udring
