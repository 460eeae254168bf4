#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "circuit/statevector.hpp"
#include "kernel/gram.hpp"
#include "linalg/policy.hpp"
#include "test_helpers.hpp"

namespace qkmps::kernel {
namespace {

RealMatrix random_scaled_data(idx n, idx m, std::uint64_t seed) {
  Rng rng(seed);
  RealMatrix x(n, m);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < m; ++j) x(i, j) = rng.uniform(0.05, 1.95);
  return x;
}

QuantumKernelConfig small_config(idx m, idx d = 1, double gamma = 0.6) {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = m, .layers = 2, .distance = d, .gamma = gamma};
  return cfg;
}

TEST(Gram, DiagonalIsOne) {
  const RealMatrix x = random_scaled_data(5, 4, 1);
  const RealMatrix k = gram_matrix(small_config(4), x);
  // Not bit-exact by contract: diagonal entries come from normalized-state
  // self-overlaps, so allow accumulated roundoff at the 1e-12 scale.
  for (idx i = 0; i < 5; ++i) EXPECT_NEAR(k(i, i), 1.0, 1e-12);
}

TEST(Gram, SymmetricByConstruction) {
  const RealMatrix x = random_scaled_data(6, 5, 2);
  const RealMatrix k = gram_matrix(small_config(5, 2), x);
  EXPECT_EQ(symmetry_defect(k), 0.0);
}

TEST(Gram, EntriesInUnitInterval) {
  const RealMatrix x = random_scaled_data(7, 4, 3);
  const RealMatrix k = gram_matrix(small_config(4, 2, 1.0), x);
  for (idx i = 0; i < k.rows(); ++i)
    for (idx j = 0; j < k.cols(); ++j) {
      EXPECT_GE(k(i, j), 0.0);
      EXPECT_LE(k(i, j), 1.0 + 1e-10);
    }
}

TEST(Gram, MatchesStatevectorKernel) {
  // Ground truth: compute |<psi_i|psi_j>|^2 with the dense simulator.
  const idx n = 5, m = 6;
  const RealMatrix x = random_scaled_data(n, m, 4);
  const QuantumKernelConfig cfg = small_config(m, 2, 0.8);

  const RealMatrix k = gram_matrix(cfg, x);

  std::vector<circuit::Statevector> svs;
  for (idx i = 0; i < n; ++i) {
    std::vector<double> row(x.row(i), x.row(i) + m);
    svs.push_back(circuit::simulate_statevector(
        circuit::feature_map_circuit(cfg.ansatz, row)));
  }
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) {
      const double expect = std::norm(svs[static_cast<std::size_t>(i)].inner_product(
          svs[static_cast<std::size_t>(j)]));
      EXPECT_NEAR(k(i, j), expect, 1e-8) << i << "," << j;
    }
}

TEST(Gram, PositiveSemidefiniteQuadraticForms) {
  // Fidelity kernels are PSD; spot-check v^T K v >= 0 on random vectors.
  const RealMatrix x = random_scaled_data(8, 4, 5);
  const RealMatrix k = gram_matrix(small_config(4, 1, 1.0), x);
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v(8);
    for (auto& e : v) e = rng.normal();
    double quad = 0.0;
    for (idx i = 0; i < 8; ++i)
      for (idx j = 0; j < 8; ++j)
        quad += v[static_cast<std::size_t>(i)] * k(i, j) * v[static_cast<std::size_t>(j)];
    EXPECT_GE(quad, -1e-9);
  }
}

TEST(Gram, StatsCountsArePredictable) {
  const idx n = 6;
  const RealMatrix x = random_scaled_data(n, 4, 7);
  GramStats stats;
  gram_matrix(small_config(4), x, &stats);
  EXPECT_EQ(stats.circuits_simulated, n);
  EXPECT_EQ(stats.inner_products, n * (n - 1) / 2);  // symmetric halving
  // Phases are measured in thread-CPU time; a handful of tiny-chi circuit
  // simulations or overlaps can round to zero at clock granularity, so only
  // non-negativity is promised here (magnitudes are covered by the benches).
  EXPECT_GE(stats.phases.total("simulation"), 0.0);
  EXPECT_GE(stats.phases.total("inner_product"), 0.0);
  EXPECT_GE(stats.avg_max_bond, 1.0);
  EXPECT_GT(stats.avg_mps_bytes, 0u);
}

TEST(CrossKernel, ShapeAndRange) {
  const RealMatrix xtest = random_scaled_data(3, 4, 8);
  const RealMatrix xtrain = random_scaled_data(5, 4, 9);
  const RealMatrix k = cross_kernel(small_config(4), xtest, xtrain);
  EXPECT_EQ(k.rows(), 3);
  EXPECT_EQ(k.cols(), 5);
  for (idx i = 0; i < 3; ++i)
    for (idx j = 0; j < 5; ++j) {
      EXPECT_GE(k(i, j), 0.0);
      EXPECT_LE(k(i, j), 1.0 + 1e-10);
    }
}

TEST(CrossKernel, IdenticalPointGivesUnitEntry) {
  const RealMatrix xtrain = random_scaled_data(4, 5, 10);
  RealMatrix xtest(1, 5);
  for (idx j = 0; j < 5; ++j) xtest(0, j) = xtrain(2, j);
  const RealMatrix k = cross_kernel(small_config(5), xtest, xtrain);
  EXPECT_NEAR(k(0, 2), 1.0, 1e-9);
}

TEST(CrossKernel, CountsBothSimulationSets) {
  const RealMatrix xtest = random_scaled_data(2, 4, 11);
  const RealMatrix xtrain = random_scaled_data(3, 4, 12);
  GramStats stats;
  cross_kernel(small_config(4), xtest, xtrain, &stats);
  EXPECT_EQ(stats.circuits_simulated, 5);
  EXPECT_EQ(stats.inner_products, 6);
}

// One stats object fed by two simulate_states calls reports averages over
// all of its circuits_simulated, not just the last call's.
TEST(CrossKernel, StatsAveragesCoverBothSimulationSets) {
  QuantumKernelConfig cfg = small_config(8, 2, 0.9);
  const RealMatrix xtest = random_scaled_data(3, 8, 14);
  const RealMatrix xtrain = random_scaled_data(5, 8, 15);
  GramStats test_only, train_only;
  const auto test = simulate_states(cfg, xtest, &test_only);
  const auto train = simulate_states(cfg, xtrain, &train_only);
  ASSERT_NE(test_only.avg_mps_bytes, train_only.avg_mps_bytes);

  double bond = 0.0, bytes = 0.0;
  for (const auto* set : {&test, &train})
    for (const mps::Mps& s : *set) {
      bond += static_cast<double>(s.max_bond());
      bytes += static_cast<double>(s.memory_bytes());
    }
  GramStats stats;
  cross_kernel(cfg, xtest, xtrain, &stats);
  EXPECT_EQ(stats.circuits_simulated, 8);
  EXPECT_NEAR(stats.avg_max_bond, bond / 8.0, 1e-12 * bond / 8.0);
  EXPECT_NEAR(stats.avg_mps_bytes, bytes / 8.0, 1e-12 * bytes / 8.0);
  EXPECT_EQ(stats.total_discarded_weight,
            test_only.total_discarded_weight + train_only.total_discarded_weight);
}

bool same_bits(const RealMatrix& a, const RealMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.rows() * a.cols()) *
                         sizeof(double)) == 0;
}

// Width invariance: the thread count of the row workers is a scheduling
// choice, never a numeric one.
TEST(Gram, BitwiseIdenticalAtAnyWidth) {
  const RealMatrix xtrain = random_scaled_data(17, 6, 20);
  const RealMatrix xtest = random_scaled_data(9, 6, 21);
  const QuantumKernelConfig cfg = small_config(6, 2, 0.9);
  const auto train = simulate_states(cfg, xtrain);
  const auto test = simulate_states(cfg, xtest);
  for (const auto policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    GramStats wide_stats, serial_stats;
    const RealMatrix k_wide = gram_from_states(train, policy, &wide_stats);
    const RealMatrix c_wide =
        cross_from_states(test, train, policy, &wide_stats);
    RealMatrix k_serial, c_serial;
    {
      const linalg::KernelThreadScope serial(1);
      k_serial = gram_from_states(train, policy, &serial_stats);
      c_serial = cross_from_states(test, train, policy, &serial_stats);
    }
    EXPECT_TRUE(same_bits(k_wide, k_serial)) << to_string(policy);
    EXPECT_TRUE(same_bits(c_wide, c_serial)) << to_string(policy);
    EXPECT_EQ(wide_stats.inner_products, serial_stats.inner_products);
    EXPECT_EQ(wide_stats.inner_products, 17 * 16 / 2 + 9 * 17);
    EXPECT_EQ(wide_stats.circuits_simulated, serial_stats.circuits_simulated);
    for (int width : {2, 3}) {
      const linalg::KernelThreadScope scope(width);
      EXPECT_TRUE(same_bits(gram_from_states(train, policy), k_serial))
          << to_string(policy) << " width " << width;
      EXPECT_TRUE(same_bits(cross_from_states(test, train, policy), c_serial))
          << to_string(policy) << " width " << width;
    }
  }
}

TEST(Gram, RowWorkersStayWithinTheKernelBudget) {
  // Bond-64 sites put an Accelerated overlap's gemm past its fork
  // threshold: a row worker without its own serial budget would fork a
  // full OpenMP team.
  Rng rng(22);
  std::vector<mps::Mps> states;
  for (int i = 0; i < 6; ++i)
    states.push_back(qkmps::testing::random_mps(4, 64, rng, 64));
  for (const auto policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    const linalg::KernelThreadScope scope(2);
    linalg::kernel_probe_reset();
    gram_from_states(states, policy);
    cross_from_states(states, states, policy);
    EXPECT_LE(linalg::kernel_probe_peak(), 2) << to_string(policy);
  }
}

TEST(Gram, InnerProductPhaseCountsWorkerCpuTime) {
  // Processor-seconds summed over the row workers: a caller-only timer
  // would read ~0 while the caller waits on the pool.
  const RealMatrix x = random_scaled_data(24, 20, 23);
  const auto states = simulate_states(small_config(20), x);
  GramStats wide;
  gram_from_states(states, linalg::ExecPolicy::Reference, &wide);
  EXPECT_GT(wide.phases.total("inner_product"), 0.0);
  GramStats serial;
  {
    const linalg::KernelThreadScope scope(1);
    gram_from_states(states, linalg::ExecPolicy::Reference, &serial);
  }
  EXPECT_GT(serial.phases.total("inner_product"), 0.0);
}

TEST(Gram, WorkerErrorReachesCallerAfterEveryLaneJoins) {
  const RealMatrix x = random_scaled_data(10, 4, 24);
  auto states = simulate_states(small_config(4), x);
  // One state on a different chain length: every row that pairs with it
  // throws from inside a worker.
  states[6] = simulate_states(small_config(5), random_scaled_data(1, 5, 25))[0];
  for (const auto policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    EXPECT_THROW(gram_from_states(states, policy), Error);
    EXPECT_THROW(cross_from_states(states, states, policy), Error);
  }
  // The pool is gone and no lane is left running: the kernel probe is back
  // to idle, so a fresh reset-and-run sees only its own workers.
  states.erase(states.begin() + 6);
  const linalg::KernelThreadScope scope(2);
  linalg::kernel_probe_reset();
  const RealMatrix k = gram_from_states(states, linalg::ExecPolicy::Reference);
  EXPECT_LE(linalg::kernel_probe_peak(), 2);
  EXPECT_EQ(symmetry_defect(k), 0.0);
}

TEST(Gram, RejectsFeatureMismatch) {
  const RealMatrix x = random_scaled_data(3, 4, 13);
  EXPECT_THROW(gram_matrix(small_config(5), x), Error);
}

}  // namespace
}  // namespace qkmps::kernel
