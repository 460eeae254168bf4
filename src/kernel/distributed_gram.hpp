#pragma once

#include "kernel/gram.hpp"

namespace qkmps::kernel {

/// Distribution strategy for the Gram matrix (Fig. 4 of the paper).
enum class DistributionStrategy {
  /// Fig. 4a: the kernel matrix is tiled and each rank independently
  /// simulates every state its tiles touch. Zero communication, but each
  /// circuit is simulated on O(sqrt(k)) ranks.
  NoMessaging,
  /// Fig. 4b: states are split evenly, each circuit simulated exactly
  /// once, then state blocks travel a ring so every rank computes its row
  /// of tiles. Memory-optimal; faster whenever transporting a state is
  /// cheaper than re-simulating it.
  RoundRobin,
};

/// Distributed computation of the symmetric training Gram matrix on
/// `num_ranks` thread-backed ranks. Produces bitwise the same matrix as
/// kernel::gram_matrix (up to floating-point reduction order, which is
/// identical here since every entry is computed independently).
/// Every rank's stats (phases, counts, discarded weight, bond and byte
/// averages) are merged into `stats` if provided (GramStats::merge).
RealMatrix distributed_gram_matrix(const QuantumKernelConfig& config,
                                   const RealMatrix& x, int num_ranks,
                                   DistributionStrategy strategy,
                                   GramStats* stats = nullptr);

/// Distributed rectangular inference kernel (test rows x train cols) with
/// the round-robin strategy: rank p simulates test block p and train block
/// p; train blocks travel the ring (Sec. II-D's rectangular case with
/// ell == k tile columns).
RealMatrix distributed_cross_kernel(const QuantumKernelConfig& config,
                                    const RealMatrix& x_test,
                                    const RealMatrix& x_train, int num_ranks,
                                    GramStats* stats = nullptr);

}  // namespace qkmps::kernel
