// udring/util/counting_allocator.h
//
// Global operator-new counting for allocation audits (bench_huge_instance's
// zero-steady-state-allocation gate, test_campaign's success-path pin).
//
// Include this from exactly ONE translation unit of a binary: it DEFINES
// the global replacement operator new/delete (non-inline, as replacement
// functions must be), so a second including TU fails loudly at link time.
// It is deliberately not part of the udring library — only audit binaries
// opt in.
//
// Under ASan and TSan the replacement is compiled out (UDRING_COUNTING_
// ALLOCATOR == 0) so the sanitizer's own allocator interposition stays in
// charge (under TSan's -O2 build GCC's -Wmismatched-new-delete also misfires
// on the inlined replacement pair, failing -Werror builds); audits should
// skip their count assertions in that configuration (the macro is the
// gate) — allocation_count() then always reports 0.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UDRING_COUNTING_ALLOCATOR 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define UDRING_COUNTING_ALLOCATOR 0
#else
#define UDRING_COUNTING_ALLOCATOR 1
#endif
#else
#define UDRING_COUNTING_ALLOCATOR 1
#endif

namespace udring {
namespace detail {
#if UDRING_COUNTING_ALLOCATOR
// Relaxed ordering: measurement windows are single-threaded; cross-thread
// counts only need eventual totals, not ordering.
inline std::atomic<std::size_t> g_alloc_count{0};
#endif
}  // namespace detail

/// Every global operator new executed by this binary so far (0 when the
/// counting allocator is compiled out under sanitizers). Snapshot before
/// and after the measured region and diff.
[[nodiscard]] inline std::size_t allocation_count() noexcept {
#if UDRING_COUNTING_ALLOCATOR
  return detail::g_alloc_count.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

}  // namespace udring

#if UDRING_COUNTING_ALLOCATOR
void* operator new(std::size_t size) {
  udring::detail::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif
