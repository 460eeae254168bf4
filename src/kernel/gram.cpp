#include "kernel/gram.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>
#include <optional>

#include "linalg/policy.hpp"
#include "mps/inner_product.hpp"
#include "parallel/thread_pool.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace qkmps::kernel {

namespace {

double max_abs_diff_impl(const RealMatrix& a, const RealMatrix& b) {
  QKMPS_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double m = 0.0;
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

std::vector<double> row_features(const RealMatrix& x, idx i) {
  return std::vector<double>(x.row(i), x.row(i) + x.cols());
}

/// Lanes for n tasks: kernel_team_width(), the calling thread's budget,
/// but never more than there are tasks; at least 1.
idx team_width(idx n) {
  return std::max<idx>(1, std::min<idx>(linalg::kernel_team_width(), n));
}

/// Runs row(i) for every i in [0, n) and returns the thread-CPU seconds
/// spent in it, summed over the threads that ran it. Rows go to a
/// transient pool of team_width(n) threads, handed out one at a time off
/// parallel_for's atomic index so uneven rows balance; at width 1 the loop
/// runs inline. Each lane works under a serial kernel budget, so an
/// Accelerated gemm inside a row cannot fork a team of its own.
template <typename Row>
double for_each_row(idx n, const Row& row) {
  const idx width = team_width(n);
  if (width <= 1) {
    ThreadCpuTimer timer;
    for (idx i = 0; i < n; ++i) row(i);
    return timer.seconds();
  }
  std::vector<double> cpu(static_cast<std::size_t>(n), 0.0);
  parallel::ThreadPool pool(static_cast<std::size_t>(width));
  pool.parallel_for(static_cast<std::size_t>(n), [&](std::size_t i) {
    linalg::detail::KernelProbeGuard probe;
    const linalg::KernelThreadScope serial(1);
    ThreadCpuTimer timer;
    row(static_cast<idx>(i));
    cpu[i] = timer.seconds();
  });
  return std::accumulate(cpu.begin(), cpu.end(), 0.0);
}

/// Slots whose circuit a simulate_states lane has finished, each with the
/// error it threw, if any, for the calling thread to collect. A slot is
/// listed at most once, and both vectors are reserved to the slot count,
/// so a lane never allocates here.
class FinishedSlots {
 public:
  struct Entry {
    std::size_t slot;
    std::exception_ptr error;
  };

  explicit FinishedSlots(std::size_t slots) { done_.reserve(slots); }

  void push(std::size_t slot, std::exception_ptr error) {
    {
      util::MutexLock lock(mu_);
      done_.push_back({slot, std::move(error)});
    }
    cv_.notify_one();
  }

  /// Blocks until some slot has finished, then swaps every finished slot
  /// into `out` (whose old entries are dropped).
  void take(std::vector<Entry>& out) {
    out.clear();
    util::UniqueLock lock(mu_);
    while (done_.empty()) cv_.wait(lock);
    out.swap(done_);
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  std::vector<Entry> done_ QKMPS_GUARDED_BY(mu_);
};

}  // namespace

double max_abs_diff(const RealMatrix& a, const RealMatrix& b) {
  return max_abs_diff_impl(a, b);
}

double symmetry_defect(const RealMatrix& k) {
  QKMPS_CHECK(k.rows() == k.cols());
  double m = 0.0;
  for (idx i = 0; i < k.rows(); ++i)
    for (idx j = i + 1; j < k.cols(); ++j)
      m = std::max(m, std::abs(k(i, j) - k(j, i)));
  return m;
}

void GramStats::merge(const GramStats& other) {
  const double n0 = static_cast<double>(circuits_simulated);
  const double n1 = static_cast<double>(other.circuits_simulated);
  // An empty side leaves the other's mean untouched, bit for bit.
  const auto mean = [&](double a, double b) {
    if (n1 == 0.0) return a;
    if (n0 == 0.0) return b;
    return (a * n0 + b * n1) / (n0 + n1);
  };
  avg_max_bond = mean(avg_max_bond, other.avg_max_bond);
  avg_mps_bytes = mean(avg_mps_bytes, other.avg_mps_bytes);
  phases.merge(other.phases);
  circuits_simulated += other.circuits_simulated;
  inner_products += other.inner_products;
  total_discarded_weight += other.total_discarded_weight;
}

std::vector<mps::Mps> simulate_states(const QuantumKernelConfig& config,
                                      const RealMatrix& x, GramStats* stats) {
  QKMPS_CHECK_MSG(x.cols() == config.ansatz.num_features,
                  "dataset has " << x.cols() << " features, ansatz expects "
                                 << config.ansatz.num_features);
  const mps::MpsSimulator sim(config.sim);
  const idx n = x.rows();
  const auto rows = static_cast<std::size_t>(n);
  const auto slots = static_cast<std::size_t>(team_width(n));

  // One slot per lane: a circuit and a working state, owned here and
  // reused circuit after circuit. feature_map_circuit already contains the
  // Hadamard preparation layer (Eq. 2), so simulation starts from |0...0>.
  // The states the caller keeps are copies made on this thread: a worker's
  // allocations would sit in its own malloc arena, which the caller's later
  // frees cannot hand back to the main one (DESIGN.md §6).
  std::vector<circuit::Circuit> circuits(slots, circuit::Circuit(1));
  std::vector<mps::SimulationResult> work(slots);
  std::vector<idx> row_of(slots, 0);
  // Per-row figures, summed in row order so that the stats, like the
  // states, do not depend on the width.
  std::vector<std::optional<mps::Mps>> kept(rows);
  std::vector<double> bond(rows), bytes(rows), discarded(rows), cpu(rows, 0.0);
  const auto keep = [&](std::size_t s) {
    const auto i = static_cast<std::size_t>(row_of[s]);
    const mps::SimulationResult& r = work[s];
    bond[i] = static_cast<double>(r.state.max_bond());
    bytes[i] = static_cast<double>(r.state.memory_bytes());
    discarded[i] = r.truncation.total_discarded_weight;
    kept[i] = r.state;  // exact-size copy
  };

  ThreadCpuTimer timer;
  if (slots == 1) {
    for (idx i = 0; i < n; ++i) {
      circuits[0] =
          circuit::feature_map_circuit(config.ansatz, row_features(x, i));
      row_of[0] = i;
      sim.simulate_into(circuits[0], work[0]);
      keep(0);
    }
  } else {
    // A lane that finishes hands its slot back and gets the next row as
    // soon as the caller has copied the state out: no lane waits for
    // another's circuit. The pool is declared after `finished`, so it
    // joins its lanes before the queue they report to goes away.
    FinishedSlots finished(slots);
    parallel::ThreadPool pool(slots);
    idx next = 0;
    std::size_t in_flight = 0;
    const auto start = [&](std::size_t s) {
      circuits[s] =
          circuit::feature_map_circuit(config.ansatz, row_features(x, next));
      row_of[s] = next++;
      ++in_flight;
      pool.submit([&, s] {
        std::exception_ptr error;
        {
          linalg::detail::KernelProbeGuard probe;
          const linalg::KernelThreadScope serial(1);
          ThreadCpuTimer lane;
          try {
            sim.simulate_into(circuits[s], work[s]);
          } catch (...) {
            error = std::current_exception();
          }
          cpu[static_cast<std::size_t>(row_of[s])] = lane.seconds();
        }
        finished.push(s, std::move(error));
      });
    };
    for (std::size_t s = 0; s < slots; ++s) start(s);
    // After an error no row starts; the rows in flight drain first, so no
    // lane still works on a slot when the error reaches the caller.
    std::exception_ptr first_error;
    std::vector<FinishedSlots::Entry> ready;
    ready.reserve(slots);
    while (in_flight > 0) {
      finished.take(ready);
      for (FinishedSlots::Entry& e : ready) {
        --in_flight;
        if (e.error && !first_error) first_error = e.error;
        if (first_error) continue;
        keep(e.slot);
        if (next < n) start(e.slot);
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  std::vector<mps::Mps> states;
  states.reserve(rows);
  for (std::optional<mps::Mps>& s : kept) states.push_back(std::move(*s));
  if (stats != nullptr) {
    GramStats local;
    local.phases.add("simulation",
                     timer.seconds() + std::accumulate(cpu.begin(), cpu.end(), 0.0));
    local.circuits_simulated = n;
    if (n > 0) {
      local.avg_max_bond =
          std::accumulate(bond.begin(), bond.end(), 0.0) / static_cast<double>(n);
      local.avg_mps_bytes =
          std::accumulate(bytes.begin(), bytes.end(), 0.0) / static_cast<double>(n);
    }
    local.total_discarded_weight =
        std::accumulate(discarded.begin(), discarded.end(), 0.0);
    stats->merge(local);
  }
  return states;
}

RealMatrix gram_from_states(const std::vector<mps::Mps>& states,
                            linalg::ExecPolicy policy, GramStats* stats) {
  const idx n = static_cast<idx>(states.size());
  RealMatrix k(n, n);
  // Row i owns k(i, i..n-1) and their mirrors k(i+1..n-1, i): no entry is
  // written by two rows.
  const double cpu = for_each_row(n, [&](idx i) {
    const mps::Mps& si = states[static_cast<std::size_t>(i)];
    k(i, i) = 1.0;  // normalized states overlap with themselves
    for (idx j = i + 1; j < n; ++j) {
      const double v = mps::overlap_squared(
          si, states[static_cast<std::size_t>(j)], policy);
      k(i, j) = v;
      k(j, i) = v;
    }
  });
  if (stats != nullptr) {
    stats->phases.add("inner_product", cpu);
    stats->inner_products += n * (n - 1) / 2;
  }
  return k;
}

RealMatrix cross_from_states(const std::vector<mps::Mps>& test_states,
                             const std::vector<mps::Mps>& train_states,
                             linalg::ExecPolicy policy, GramStats* stats) {
  const idx nt = static_cast<idx>(test_states.size());
  const idx nr = static_cast<idx>(train_states.size());
  RealMatrix k(nt, nr);
  const double cpu = for_each_row(nt, [&](idx i) {
    const mps::Mps& si = test_states[static_cast<std::size_t>(i)];
    for (idx j = 0; j < nr; ++j)
      k(i, j) = mps::overlap_squared(
          si, train_states[static_cast<std::size_t>(j)], policy);
  });
  if (stats != nullptr) {
    stats->phases.add("inner_product", cpu);
    stats->inner_products += nt * nr;
  }
  return k;
}

RealMatrix gram_matrix(const QuantumKernelConfig& config, const RealMatrix& x,
                       GramStats* stats) {
  const std::vector<mps::Mps> states = simulate_states(config, x, stats);
  return gram_from_states(states, config.sim.policy, stats);
}

RealMatrix cross_kernel(const QuantumKernelConfig& config,
                        const RealMatrix& x_test, const RealMatrix& x_train,
                        GramStats* stats) {
  const std::vector<mps::Mps> test_states = simulate_states(config, x_test, stats);
  const std::vector<mps::Mps> train_states = simulate_states(config, x_train, stats);
  return cross_from_states(test_states, train_states, config.sim.policy, stats);
}

}  // namespace qkmps::kernel
