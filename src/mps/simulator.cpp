#include "mps/simulator.hpp"

#include "circuit/routing.hpp"
#include "mps/gate_application.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace qkmps::mps {

namespace {

/// Applies `c`'s chain-routed gate stream to out.state, accumulating into
/// out's stats and memory profile.
void run_gates(const SimulatorConfig& config, const circuit::Circuit& c,
               SimulationResult& out) {
  QKMPS_CHECK(c.num_qubits() == out.state.num_sites());
  Timer timer;
  circuit::for_each_chain_gate(c, [&](const circuit::Gate& g) {
    apply_gate(out.state, g, config.truncation, config.policy,
               &out.truncation);
    ++out.gates_applied;
    if (config.track_memory) {
      out.memory.record(out.gates_applied, out.state.memory_bytes(),
                        out.state.max_bond());
    }
  });
  out.seconds = timer.seconds();
}

}  // namespace

MpsSimulator::MpsSimulator(SimulatorConfig config) : config_(config) {}

SimulationResult MpsSimulator::simulate(const circuit::Circuit& c) const {
  thread_local SimulationResult work;
  simulate_into(c, work);
  return SimulationResult(work);
}

SimulationResult MpsSimulator::simulate(const circuit::Circuit& c,
                                        Mps initial) const {
  SimulationResult out{std::move(initial), {}, {}, 0.0, 0};
  run_gates(config_, c, out);
  return SimulationResult(out);
}

void MpsSimulator::simulate_into(const circuit::Circuit& c,
                                 SimulationResult& out) const {
  out.state.reset(c.num_qubits());
  out.truncation = {};
  out.memory.clear();
  out.gates_applied = 0;
  run_gates(config_, c, out);
}

}  // namespace qkmps::mps
