#include <algorithm>
#include <vector>

#include "circuit/routing.hpp"
#include "linalg/batched.hpp"
#include "mps/gate_application.hpp"
#include "mps/simulator.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qkmps::mps {

namespace {

/// One circuit advancing through the lockstep sweep. The TwoQubitStep's
/// buffers persist across every gate of the circuit, so after the first
/// few gates the hot loop stops allocating.
struct BatchTask {
  circuit::Circuit routed;
  SimulationResult result;
  std::size_t next_gate = 0;
  TwoQubitStep step;
  bool pending = false;  ///< a staged two-qubit gate awaits the kernel passes
};

}  // namespace

std::vector<SimulationResult> MpsSimulator::simulate_batch(
    const std::vector<circuit::Circuit>& circuits,
    const linalg::KernelBatchConfig& kernels) const {
  // The per-matrix kernel flavour always follows the simulator config, so
  // a batch is bitwise-comparable with simulate() under the same config.
  linalg::KernelBatchConfig cfg = kernels;
  cfg.policy = config_.policy;

  Timer timer;
  std::vector<BatchTask> tasks;
  tasks.reserve(circuits.size());
  for (const circuit::Circuit& c : circuits) {
    tasks.push_back(BatchTask{
        c.is_nearest_neighbour() ? c : circuit::route_to_chain(c),
        SimulationResult{Mps(c.num_qubits()), {}, {}, 0.0, 0}, 0, {}, false});
  }

  // Advances one task: single-qubit gates apply inline; the first
  // two-qubit gate met is staged (phase 1) and the task parks until the
  // round's kernel passes complete it.
  const auto advance = [&](BatchTask& t) {
    while (t.next_gate < t.routed.gates().size()) {
      const circuit::Gate& g = t.routed.gates()[t.next_gate];
      if (!g.is_two_qubit()) {
        apply_single_qubit_gate(t.result.state, g.unitary(), g.q0);
        ++t.next_gate;
        ++t.result.gates_applied;
        if (config_.track_memory) {
          t.result.memory.record(t.result.gates_applied,
                                 t.result.state.memory_bytes(),
                                 t.result.state.max_bond());
        }
        continue;
      }
      QKMPS_CHECK_MSG(std::abs(g.q0 - g.q1) == 1,
                      "non-adjacent two-qubit gate survived routing");
      const circuit::GateMatrix u = chain_ordered_gate(g);
      stage_two_qubit_gate(t.result.state, u, std::min(g.q0, g.q1), t.step,
                           config_.policy);
      t.pending = true;
      return;
    }
  };

  linalg::KernelArena arena;
  std::vector<std::size_t> round;  // tasks with a staged gate this round
  std::vector<linalg::GemmTask> gemms;
  std::vector<linalg::SvdTask> svds;
  round.reserve(tasks.size());
  gemms.reserve(tasks.size());
  svds.reserve(tasks.size());

  for (;;) {
    // Stage phase: per-task serial work (single-qubit gates, canonical
    // moves, matricization), spread across the batch budget.
    linalg::batched_for(tasks.size(), cfg, [&](std::size_t i) {
      if (!tasks[i].pending) advance(tasks[i]);
    });

    round.clear();
    for (std::size_t i = 0; i < tasks.size(); ++i)
      if (tasks[i].pending) round.push_back(i);
    if (round.empty()) break;

    // theta = a_left * b_right across the round in one pass.
    gemms.clear();
    for (std::size_t i : round) {
      TwoQubitStep& s = tasks[i].step;
      gemms.push_back({&s.a_left, &s.b_right, &s.theta});
    }
    linalg::batched_gemm(gemms, cfg);

    linalg::batched_for(round.size(), cfg, [&](std::size_t r) {
      permute_theta_for_gate(tasks[round[r]].step);
    });

    // theta_u = gate * theta_p.
    gemms.clear();
    for (std::size_t i : round) {
      TwoQubitStep& s = tasks[i].step;
      gemms.push_back({&s.gate, &s.theta_p, &s.theta_u});
    }
    linalg::batched_gemm(gemms, cfg);

    linalg::batched_for(round.size(), cfg, [&](std::size_t r) {
      permute_theta_for_svd(tasks[round[r]].step);
    });

    // The round's truncation SVDs — the micro-batch the batched kernel
    // layer exists for.
    svds.clear();
    for (std::size_t i : round) {
      TwoQubitStep& s = tasks[i].step;
      svds.push_back({&s.theta_m, &s.f});
    }
    linalg::batched_svd(svds, cfg, &arena);

    // Commit phase: truncate, write back, bookkeeping — per-task again.
    linalg::batched_for(round.size(), cfg, [&](std::size_t r) {
      BatchTask& t = tasks[round[r]];
      commit_two_qubit_gate(t.result.state, t.step, config_.truncation,
                            &t.result.truncation);
      ++t.next_gate;
      ++t.result.gates_applied;
      if (config_.track_memory) {
        t.result.memory.record(t.result.gates_applied,
                               t.result.state.memory_bytes(),
                               t.result.state.max_bond());
      }
      t.pending = false;
    });
  }

  const double seconds = timer.seconds();
  std::vector<SimulationResult> out;
  out.reserve(tasks.size());
  for (BatchTask& t : tasks) {
    t.result.seconds = seconds;
    out.push_back(std::move(t.result));
  }
  return out;
}

}  // namespace qkmps::mps
