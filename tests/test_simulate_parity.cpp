/// Parity of the allocation-light simulator with the allocating oracle of
/// simulate_oracle.hpp, and width invariance of the parallel training
/// simulation. (simulate_batch's parity with simulate lives in
/// test_batched_kernels: its OpenMP passes are outside what TSan can
/// check, and this suite runs under TSan.)

#include <gtest/gtest.h>

#include <limits>

#include "circuit/ansatz.hpp"
#include "circuit/routing.hpp"
#include "kernel/gram.hpp"
#include "linalg/policy.hpp"
#include "mps/simulator.hpp"
#include "simulate_oracle.hpp"
#include "test_helpers.hpp"

namespace qkmps::mps {
namespace {

using linalg::ExecPolicy;
using qkmps::testing::exact_size;
using qkmps::testing::oracle_simulate;
using qkmps::testing::same_state;
using qkmps::testing::same_stats;

circuit::Circuit ansatz_circuit(idx m, idx d, double gamma, std::uint64_t seed) {
  Rng rng(seed);
  const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = d,
                                .gamma = gamma};
  return circuit::feature_map_circuit(p, qkmps::testing::random_features(m, rng));
}

/// Reference and Accelerated, untruncated and under a bond cap that makes
/// every wide gate truncate.
std::vector<SimulatorConfig> configs() {
  std::vector<SimulatorConfig> out;
  for (const auto policy : {ExecPolicy::Reference, ExecPolicy::Accelerated})
    for (const idx cap : {idx{0}, idx{3}}) {
      SimulatorConfig cfg;
      cfg.policy = policy;
      cfg.truncation.max_bond = cap;
      out.push_back(cfg);
    }
  return out;
}

TEST(SimulateParity, SimulateMatchesAllocatingOracle) {
  for (const SimulatorConfig& cfg : configs()) {
    const MpsSimulator sim(cfg);
    for (const idx d : {1, 2, 3}) {
      const circuit::Circuit c = ansatz_circuit(10, d, 0.9, 40 + d);
      const SimulationResult want = oracle_simulate(c, cfg);
      const SimulationResult got = sim.simulate(c);
      EXPECT_TRUE(same_state(got.state, want.state))
          << to_string(cfg.policy) << " cap " << cfg.truncation.max_bond
          << " d=" << d;
      EXPECT_TRUE(same_stats(got.truncation, want.truncation));
      EXPECT_EQ(got.gates_applied, want.gates_applied);
      EXPECT_TRUE(exact_size(got.state));
    }
    // Routed random circuits over the whole gate vocabulary, including
    // descending-operand two-qubit gates.
    Rng rng(77);
    const circuit::Circuit c = qkmps::testing::random_circuit(7, 60, rng);
    EXPECT_TRUE(same_state(sim.simulate(c).state, oracle_simulate(c, cfg).state));
  }
}

TEST(SimulateParity, InitialStateOverloadMatchesOracle) {
  // The ansatz opens with a Hadamard on every qubit, and H|0> is bitwise
  // the |+> of plus_state: the tail from |+>^m equals the full circuit.
  const circuit::Circuit full = ansatz_circuit(6, 2, 0.7, 9);
  circuit::Circuit tail(6);
  for (std::size_t i = 6; i < full.gates().size(); ++i) tail.append(full.gates()[i]);
  const SimulationResult got = MpsSimulator().simulate(tail, Mps::plus_state(6));
  EXPECT_TRUE(same_state(got.state, oracle_simulate(full, {}).state));
  EXPECT_TRUE(exact_size(got.state));
}

TEST(SimulateParity, SimulateIntoReusesOneWorkingState) {
  // One working result across circuits of different lengths and bonds:
  // nothing of the previous circuit may leak into the next.
  const MpsSimulator sim;
  SimulationResult work;
  for (const auto& [m, d] : {std::pair<idx, idx>{12, 3}, {5, 1}, {9, 2}, {12, 1}}) {
    const circuit::Circuit c = ansatz_circuit(m, d, 0.8, 100 + m + d);
    sim.simulate_into(c, work);
    const SimulationResult want = oracle_simulate(c, {});
    EXPECT_TRUE(same_state(work.state, want.state)) << "m=" << m << " d=" << d;
    EXPECT_TRUE(same_stats(work.truncation, want.truncation));
    EXPECT_EQ(work.gates_applied, want.gates_applied);
  }
}

kernel::RealMatrix random_scaled_data(idx n, idx m, std::uint64_t seed) {
  Rng rng(seed);
  kernel::RealMatrix x(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j) x(i, j) = rng.uniform(0.05, 1.95);
  return x;
}

std::vector<double> row(const kernel::RealMatrix& x, idx i) {
  return std::vector<double>(x.row(i), x.row(i) + x.cols());
}

TEST(SimulateParity, SimulateStatesBitwiseAtAnyWidth) {
  const kernel::RealMatrix x = random_scaled_data(11, 9, 300);
  for (const SimulatorConfig& sim_cfg : configs()) {
    kernel::QuantumKernelConfig cfg;
    cfg.ansatz = {.num_features = 9, .layers = 2, .distance = 3, .gamma = 0.9};
    cfg.sim = sim_cfg;
    std::vector<SimulationResult> want;
    for (idx i = 0; i < x.rows(); ++i)
      want.push_back(oracle_simulate(
          circuit::feature_map_circuit(cfg.ansatz, row(x, i)), sim_cfg));

    kernel::GramStats first;
    for (const int width : {1, 2, 4}) {
      const linalg::KernelThreadScope scope(width);
      linalg::kernel_probe_reset();
      kernel::GramStats stats;
      const std::vector<Mps> got = kernel::simulate_states(cfg, x, &stats);
      EXPECT_LE(linalg::kernel_probe_peak(), width);
      ASSERT_EQ(got.size(), want.size());
      double discarded = 0.0;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(same_state(got[i], want[i].state))
            << to_string(sim_cfg.policy) << " cap " << sim_cfg.truncation.max_bond
            << " width " << width << " state " << i;
        EXPECT_TRUE(exact_size(got[i])) << "width " << width << " state " << i;
        discarded += want[i].truncation.total_discarded_weight;
      }
      EXPECT_EQ(stats.circuits_simulated, x.rows());
      EXPECT_EQ(stats.total_discarded_weight, discarded);
      if (width == 1) {
        first = stats;
        continue;
      }
      EXPECT_EQ(stats.avg_max_bond, first.avg_max_bond) << "width " << width;
      EXPECT_EQ(stats.avg_mps_bytes, first.avg_mps_bytes) << "width " << width;
      EXPECT_EQ(stats.total_discarded_weight, first.total_discarded_weight);
      EXPECT_GT(stats.phases.total("simulation"), 0.0);
    }
  }
}

TEST(SimulateParity, WorkerErrorReachesCaller) {
  // A NaN feature makes its circuit's first wide SVD non-finite; the
  // worker simulating it throws, and the caller sees the error after every
  // lane has stopped.
  kernel::QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 6, .layers = 2, .distance = 2, .gamma = 0.8};
  kernel::RealMatrix x = random_scaled_data(9, 6, 400);
  x(5, 2) = std::numeric_limits<double>::quiet_NaN();
  for (const int width : {1, 4}) {
    const linalg::KernelThreadScope scope(width);
    EXPECT_THROW(kernel::simulate_states(cfg, x), Error) << "width " << width;
  }
  // No lane is left running: a fresh reset-and-run sees only its own.
  const linalg::KernelThreadScope scope(2);
  linalg::kernel_probe_reset();
  x(5, 2) = 0.5;
  EXPECT_EQ(kernel::simulate_states(cfg, x).size(), 9u);
  EXPECT_LE(linalg::kernel_probe_peak(), 2);
}

}  // namespace
}  // namespace qkmps::mps
