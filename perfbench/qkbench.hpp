#pragma once

/// Shared declarations of the qkbench driver (perfbench/main.cpp): the
/// allocation counter, the output checks, and the serving load loops.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kernel/gram.hpp"
#include "serve/model_bundle.hpp"
#include "serve/rank_sharded_engine.hpp"
#include "svm/svm.hpp"

namespace qkbench {

using qkmps::idx;
using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- alloc_count.cpp ------------------------------------------------------

/// operator new calls made so far by the calling thread. The driver links a
/// counting global operator new, so a layer's allocations are the delta
/// around a call made on this thread (the training path is single-threaded).
std::uint64_t thread_allocations();

// ---- checks.cpp -----------------------------------------------------------

/// Collects check outcomes. A failed check is reported on stderr and makes
/// the run's `correct` false; the run carries on so every failure shows.
class CheckLog {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

/// Gram-matrix relations: unit self-overlaps, entries in [0, 1], symmetry
/// on sampled pairs, positive semidefiniteness (Cholesky of K + 1e-9 I),
/// and the summed discarded weight per circuit under `max_discarded`.
void check_gram(const std::vector<qkmps::mps::Mps>& states,
                const qkmps::kernel::RealMatrix& k,
                const qkmps::kernel::GramStats& stats, double max_discarded,
                std::uint64_t seed, CheckLog& log);

/// Cross-kernel entries lie in [0, 1].
void check_cross(const qkmps::kernel::RealMatrix& k_test, CheckLog& log);

/// MPS kernel entries against the dense statevector simulator on the first
/// `features` columns of a few rows of `x`, at the workload's distance:
/// within 1e-10 with truncation off, within 1e-8 with the workload's.
void check_statevector(const qkmps::kernel::QuantumKernelConfig& config,
                       const qkmps::kernel::RealMatrix& x, idx features,
                       CheckLog& log);

/// SVC relations: 0 <= alpha <= C, sum alpha_i y_i = 0, convergence, and
/// decision values recomputed from alpha, y, b and K.
void check_svc(const qkmps::svm::SvcModel& model, double c,
               const qkmps::kernel::RealMatrix& k_test,
               const std::vector<double>& decision, CheckLog& log);

/// ROC AUC by direct pair counting (ties count one half).
double pair_count_auc(const std::vector<int>& truth,
                      const std::vector<double>& scores);

/// The offline decision value of every test row against the bundle: the
/// cross-kernel columns of the support vectors, scored by the compacted
/// model. A few rows are recomputed end to end (simulate_states, then
/// cross_from_states against bundle.sv_states, then decision_values) and
/// must agree bit for bit.
std::vector<double> offline_decisions(const qkmps::serve::ModelBundle& bundle,
                                      const qkmps::kernel::RealMatrix& k_test,
                                      const qkmps::kernel::RealMatrix& x_test,
                                      CheckLog& log);

// ---- load.cpp -------------------------------------------------------------

/// Requests sent by one load loop and what came back. `rows[i]` is the row
/// of the request stream request i carried.
struct LoadResult {
  double seconds = 0.0;  ///< wall time of the loop
  std::vector<idx> rows;
  std::vector<qkmps::serve::RoutedPrediction> results;
  std::vector<double> latency_seconds;  ///< open loop: due -> fulfilment
  std::vector<double> late_seconds;     ///< open loop: due -> submit
};

/// Closed loop from the calling thread: keeps `window` requests outstanding
/// and sends the next one when the oldest resolves.
LoadResult closed_loop(qkmps::serve::RankShardedEngine& engine,
                       const std::vector<std::vector<double>>& rows,
                       const std::vector<idx>& order, std::size_t window);

/// Open loop from the calling thread at a fixed `rate` (requests/s):
/// request i is due at start + i / rate and is timed from then.
LoadResult open_loop(qkmps::serve::RankShardedEngine& engine,
                     const std::vector<std::vector<double>>& rows,
                     const std::vector<idx>& order, double rate);

/// Self time of each span of a stitched trace: a router span's duration
/// minus the worker spans it contains; a worker span's own duration.
std::map<std::string, double> span_self_seconds(
    const qkmps::obs::TraceSummary& trace);

}  // namespace qkbench
