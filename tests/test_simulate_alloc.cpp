/// Pins "allocation-light" for the simulator with a count. This binary
/// links tests/alloc_counter.cpp, whose global operator new bumps a
/// per-thread counter, so a measured window sees exactly its own thread's
/// allocations.

#include <gtest/gtest.h>

#include <cstdint>

#include "circuit/ansatz.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace qkmps::testing {
std::uint64_t thread_allocations();
}  // namespace qkmps::testing

namespace qkmps::mps {
namespace {

using qkmps::testing::thread_allocations;

// A warm simulate() of the d = 3 circuit below (the paper's gamma = 0.1)
// made 40,526 heap allocations before the simulator kept per-thread
// workspaces: a fresh TwoQubitStep, SVD, QR/LQ and site vectors per gate,
// a heap matrix per gate unitary, and a copy of the circuit. Measured with
// this file's circuit and counter.
constexpr std::uint64_t kAllocatingSimulateCount = 40526;

circuit::Circuit d3_circuit() {
  Rng rng(5);
  const circuit::AnsatzParams p{.num_features = 40, .layers = 2, .distance = 3,
                                .gamma = 0.1};
  return circuit::feature_map_circuit(p, qkmps::testing::random_features(40, rng));
}

TEST(SimulateAlloc, WarmD3SimulateAllocatesTenfoldLess) {
  const circuit::Circuit c = d3_circuit();
  for (const auto policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    SimulatorConfig cfg;
    cfg.policy = policy;
    const MpsSimulator sim(cfg);
    const SimulationResult cold = sim.simulate(c);  // warms the workspaces
    const std::uint64_t before = thread_allocations();
    const SimulationResult warm = sim.simulate(c);
    const std::uint64_t count = thread_allocations() - before;
    EXPECT_LE(count * 10, kAllocatingSimulateCount) << to_string(policy);
    // What is left is the returned copy: the site vector and one block
    // per site.
    EXPECT_LE(count, static_cast<std::uint64_t>(c.num_qubits()) + 1)
        << to_string(policy);
    EXPECT_EQ(warm.state.max_bond(), cold.state.max_bond());
  }
}

TEST(SimulateAlloc, WarmSimulateIntoMakesNoAllocation) {
  // The d = 3 circuit is not nearest-neighbour: it is routed gate by gate
  // as it runs, never copied.
  const circuit::Circuit c = d3_circuit();
  ASSERT_FALSE(c.is_nearest_neighbour());
  for (const auto policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    SimulatorConfig cfg;
    cfg.policy = policy;
    const MpsSimulator sim(cfg);
    SimulationResult work;
    sim.simulate_into(c, work);
    const std::uint64_t before = thread_allocations();
    sim.simulate_into(c, work);
    EXPECT_EQ(thread_allocations() - before, 0u) << to_string(policy);
  }
}

}  // namespace
}  // namespace qkmps::mps
