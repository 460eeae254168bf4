#pragma once

#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "linalg/batched.hpp"
#include "linalg/policy.hpp"
#include "mps/memory_tracker.hpp"
#include "mps/mps.hpp"
#include "mps/truncation.hpp"

namespace qkmps::mps {

/// Configuration of one simulation backend instance. The policy selects
/// the reference (CPU-stand-in) or accelerated (GPU-stand-in) dense
/// kernels — both run the *same* MPS algorithm, mirroring the paper's
/// "both libraries use the same MPS simulation algorithm" setup, so bond
/// dimensions must agree between policies (Table I's consistency check).
struct SimulatorConfig {
  linalg::ExecPolicy policy = linalg::ExecPolicy::Reference;
  TruncationConfig truncation;
  bool track_memory = false;  ///< record a Fig.6-style footprint profile
};

/// Outcome of simulating one circuit.
struct SimulationResult {
  Mps state{1};                ///< |0> on one site until simulated into
  TruncationStats truncation;
  MemoryTracker memory;        ///< empty unless track_memory
  double seconds = 0.0;        ///< wall-clock simulation time
  idx gates_applied = 0;
};

/// MPS circuit simulator (Sec. II-B). Gates act on adjacent chain sites;
/// a circuit that is not nearest-neighbour is routed gate by gate as it
/// runs (circuit::for_each_chain_gate), never copied.
class MpsSimulator {
 public:
  explicit MpsSimulator(SimulatorConfig config = {});

  const SimulatorConfig& config() const { return config_; }

  /// Simulates `c` starting from |0...0>. The gates run in a per-thread
  /// working state (simulate_into), so a warm thread allocates little
  /// more than the result: an exact-size copy (every site's capacity equals
  /// its size) allocated by the calling thread.
  SimulationResult simulate(const circuit::Circuit& c) const;

  /// Simulates `c` starting from a caller-provided state (e.g. |+>^m);
  /// returns an exact-size copy like simulate(c).
  SimulationResult simulate(const circuit::Circuit& c, Mps initial) const;

  /// Simulates `c` from |0...0> into `out`, reusing the heap blocks `out`
  /// already owns: its state is reset site by site and every gate rewrites
  /// its sites in place. A caller that keeps `out` across circuits runs
  /// allocation-light once warm, but the sites keep whatever slack capacity
  /// the widest mid-circuit bond gave them; copy the state (copies are
  /// exact-size) before keeping it.
  void simulate_into(const circuit::Circuit& c, SimulationResult& out) const;

  /// Simulates a batch of independent circuits (each from |0...0>) in
  /// lockstep: all states advance together and each round's two-qubit-gate
  /// gemm/SVD work across the batch is submitted to the batched kernel
  /// layer as one pass (linalg/batched.hpp), under `kernels`' backend and
  /// thread budget (the per-matrix policy is taken from this simulator's
  /// config, overriding kernels.policy). Per-circuit results — states,
  /// truncation stats, memory profiles — are bitwise-identical to
  /// simulate() on each circuit alone; batching is a scheduling choice.
  /// SimulationResult::seconds reports the whole batch's wall time in
  /// every entry (lockstep execution has no per-circuit wall time).
  std::vector<SimulationResult> simulate_batch(
      const std::vector<circuit::Circuit>& circuits,
      const linalg::KernelBatchConfig& kernels) const;

 private:
  SimulatorConfig config_;
};

}  // namespace qkmps::mps
