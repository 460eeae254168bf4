#include "linalg/policy.hpp"

#include <atomic>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace qkmps::linalg {

namespace {

/// Per-thread kernel budget; 0 = unbudgeted. thread_local because the
/// budget is consulted by the thread *deciding* a team width (the caller of
/// kernel_team_width), never by the spawned team members.
thread_local int g_kernel_budget = 0;

std::atomic<int> g_probe_active{0};
std::atomic<int> g_probe_peak{0};
/// Guards open on this thread: only the outermost counts, so a kernel
/// region nested inside another on the same thread (a blocked gemm inside
/// a Gram row worker) is one thread, not two.
thread_local int t_probe_depth = 0;

}  // namespace

std::string to_string(ExecPolicy policy) {
  switch (policy) {
    case ExecPolicy::Reference: return "reference";
    case ExecPolicy::Accelerated: return "accelerated";
  }
  return "unknown";
}

KernelThreadScope::KernelThreadScope(int max_threads) : prev_(g_kernel_budget) {
  g_kernel_budget = max_threads > 0 ? max_threads : 0;
}

KernelThreadScope::~KernelThreadScope() { g_kernel_budget = prev_; }

int KernelThreadScope::current() { return g_kernel_budget; }

int kernel_team_width() {
  int width = 1;
#ifdef _OPENMP
  width = omp_get_max_threads();
#endif
  const int budget = KernelThreadScope::current();
  if (budget > 0 && budget < width) width = budget;
  return width >= 1 ? width : 1;
}

void kernel_probe_reset() {
  g_probe_active.store(0, std::memory_order_relaxed);
  g_probe_peak.store(0, std::memory_order_relaxed);
}

int kernel_probe_peak() { return g_probe_peak.load(std::memory_order_relaxed); }

namespace detail {

KernelProbeGuard::KernelProbeGuard() {
  if (t_probe_depth++ > 0) return;
  const int now = g_probe_active.fetch_add(1, std::memory_order_relaxed) + 1;
  int peak = g_probe_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_probe_peak.compare_exchange_weak(peak, now,
                                             std::memory_order_relaxed)) {
  }
}

KernelProbeGuard::~KernelProbeGuard() {
  if (--t_probe_depth > 0) return;
  g_probe_active.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace qkmps::linalg
