#pragma once

#include <vector>

#include "circuit/ansatz.hpp"
#include "kernel/kernel_matrix.hpp"
#include "mps/simulator.hpp"
#include "util/timer.hpp"

namespace qkmps::kernel {

/// Everything needed to evaluate the quantum kernel on data: the feature
/// map hyperparameters and the simulator configuration.
struct QuantumKernelConfig {
  circuit::AnsatzParams ansatz;
  mps::SimulatorConfig sim;
};

/// Resource/accounting record for one Gram-matrix computation; the phase
/// totals ("simulation", "inner_product", "communication") are the Fig. 8
/// runtime breakdown.
struct GramStats {
  /// "simulation" and "inner_product" are processor-seconds: thread-CPU
  /// time summed over every thread that did the work. gram_from_states /
  /// cross_from_states spread rows over worker threads, and each worker
  /// times its own rows, so "inner_product" is the total zipper cost
  /// whatever the width (not the caller's wall or CPU time, which reads
  /// ~0 while the caller waits on the workers). "communication" is
  /// wall-clock time.
  PhaseTimer phases;
  idx circuits_simulated = 0;
  idx inner_products = 0;
  double avg_max_bond = 0.0;          ///< Table I column
  std::size_t avg_mps_bytes = 0;      ///< Table I column
  /// Eq. 8 discarded weight (the summed squared singular values truncated
  /// away), summed over every simulated state. This is not a bound on
  /// the error of a kernel entry: overlap error grows roughly like the
  /// square root of the weight, so at d = 3 with 10 features entries were
  /// 3e-10 off the statevector reference while the summed weight was
  /// 4.6e-15. A weight -> kernel -> decision-value bound has to use √w.
  double total_discarded_weight = 0.0;
};

/// Simulates the feature-map circuit for each row of X (features on
/// columns, already rescaled to (0,2)); returns one MPS per data point.
std::vector<mps::Mps> simulate_states(const QuantumKernelConfig& config,
                                      const RealMatrix& x,
                                      GramStats* stats = nullptr);

/// Symmetric training Gram matrix K_ij = |<psi(x_i)|psi(x_j)>|^2 (Eq. 1),
/// exploiting symmetry: N(N-1)/2 inner products. States are simulated
/// serially; the overlaps run as described at gram_from_states.
RealMatrix gram_matrix(const QuantumKernelConfig& config, const RealMatrix& x,
                       GramStats* stats = nullptr);

/// Rectangular inference kernel K_ij = |<psi(test_i)|psi(train_j)>|^2.
RealMatrix cross_kernel(const QuantumKernelConfig& config,
                        const RealMatrix& x_test, const RealMatrix& x_train,
                        GramStats* stats = nullptr);

/// Same two entry points but computed from already-simulated states.
/// Rows are spread over linalg::kernel_team_width() threads (the
/// KernelThreadScope budget of the calling thread; width 1 runs inline).
/// Every entry is computed and written by exactly one task with the same
/// arithmetic, so the result is bitwise identical at any width. An
/// exception thrown by a row reaches the caller after every worker has
/// stopped.
RealMatrix gram_from_states(const std::vector<mps::Mps>& states,
                            linalg::ExecPolicy policy,
                            GramStats* stats = nullptr);
RealMatrix cross_from_states(const std::vector<mps::Mps>& test_states,
                             const std::vector<mps::Mps>& train_states,
                             linalg::ExecPolicy policy,
                             GramStats* stats = nullptr);

}  // namespace qkmps::kernel
