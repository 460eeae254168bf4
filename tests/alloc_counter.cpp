/// Counting global operator new for the allocation-count suites
/// (test_zipper_alloc, test_simulate_alloc) only: every call
/// bumps a per-thread counter, so allocation counts are exact and
/// unaffected by other threads. Kept in its own translation unit so the
/// replacement is never inlined into the code under measurement.

#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

namespace qkmps::testing {
std::uint64_t thread_allocations() { return t_allocations; }
}  // namespace qkmps::testing

void* operator new(std::size_t n) {
  ++t_allocations;
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
