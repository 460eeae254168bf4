#include <gtest/gtest.h>

#include <cmath>

#include "kernel/distributed_gram.hpp"
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

QuantumKernelConfig cfg4() {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 4, .layers = 2, .distance = 1, .gamma = 0.7};
  return cfg;
}

class RankCount : public ::testing::TestWithParam<int> {};

TEST_P(RankCount, RoundRobinMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix x = random_scaled_data(13, 4, 100 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got = distributed_gram_matrix(
      cfg4(), x, ranks, DistributionStrategy::RoundRobin);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
}

TEST_P(RankCount, NoMessagingMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix x = random_scaled_data(11, 4, 200 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got = distributed_gram_matrix(
      cfg4(), x, ranks, DistributionStrategy::NoMessaging);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
}

TEST_P(RankCount, CrossKernelMatchesSequential) {
  const int ranks = GetParam();
  const RealMatrix xtest = random_scaled_data(7, 4, 300 + static_cast<std::uint64_t>(ranks));
  const RealMatrix xtrain = random_scaled_data(9, 4, 400 + static_cast<std::uint64_t>(ranks));
  const RealMatrix expect = cross_kernel(cfg4(), xtest, xtrain);
  const RealMatrix got = distributed_cross_kernel(cfg4(), xtest, xtrain, ranks);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12) << "ranks=" << ranks;
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCount, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(DistributedGram, RoundRobinSimulatesEachCircuitOnce) {
  // The round-robin signature property (Fig. 4b): total circuit
  // simulations equal the number of data points, regardless of rank count.
  const RealMatrix x = random_scaled_data(12, 4, 500);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 4, DistributionStrategy::RoundRobin, &stats);
  EXPECT_EQ(stats.circuits_simulated, 12);
  EXPECT_GT(stats.phases.total("communication"), 0.0);
}

TEST(DistributedGram, NoMessagingDuplicatesSimulations) {
  // The no-messaging signature (Fig. 4a): off-diagonal tiles re-simulate
  // their row and column states, so the total exceeds the point count.
  const RealMatrix x = random_scaled_data(12, 4, 600);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 4, DistributionStrategy::NoMessaging, &stats);
  EXPECT_GT(stats.circuits_simulated, 12);
  EXPECT_DOUBLE_EQ(stats.phases.total("communication"), 0.0);
}

// The quality signals survive the merge of the ranks' stats: each strategy
// reports the discarded weight and the bond and byte averages of the
// circuits it simulated, as the sequential kernels do.
TEST(DistributedGram, StatsMergeQualitySignalsFromEveryRank) {
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 6, .layers = 2, .distance = 2, .gamma = 0.9};
  cfg.sim.truncation.max_bond = 2;  // every wide gate discards weight
  const RealMatrix x = random_scaled_data(10, 6, 600);
  const RealMatrix xtest = random_scaled_data(5, 6, 601);
  const auto near = [](double got, double want) {
    return std::abs(got - want) <= 1e-12 * std::abs(want);
  };

  GramStats seq;
  gram_matrix(cfg, x, &seq);
  ASSERT_GT(seq.total_discarded_weight, 0.0);
  GramStats rr;
  distributed_gram_matrix(cfg, x, 4, DistributionStrategy::RoundRobin, &rr);
  EXPECT_EQ(rr.circuits_simulated, 10);
  EXPECT_TRUE(near(rr.total_discarded_weight, seq.total_discarded_weight));
  EXPECT_TRUE(near(rr.avg_max_bond, seq.avg_max_bond));
  EXPECT_TRUE(near(rr.avg_mps_bytes, seq.avg_mps_bytes));

  // Three ranks tile a 2 x 2 grid, so every circuit is simulated twice: the
  // weight doubles and the averages stay.
  GramStats nm;
  distributed_gram_matrix(cfg, x, 3, DistributionStrategy::NoMessaging, &nm);
  EXPECT_EQ(nm.circuits_simulated, 20);
  EXPECT_TRUE(near(nm.total_discarded_weight, 2.0 * seq.total_discarded_weight));
  EXPECT_TRUE(near(nm.avg_max_bond, seq.avg_max_bond));
  EXPECT_TRUE(near(nm.avg_mps_bytes, seq.avg_mps_bytes));

  GramStats seq_cross, dist_cross;
  cross_kernel(cfg, xtest, x, &seq_cross);
  distributed_cross_kernel(cfg, xtest, x, 3, &dist_cross);
  EXPECT_EQ(dist_cross.circuits_simulated, 15);
  EXPECT_TRUE(near(dist_cross.total_discarded_weight,
                   seq_cross.total_discarded_weight));
  EXPECT_TRUE(near(dist_cross.avg_max_bond, seq_cross.avg_max_bond));
  EXPECT_TRUE(near(dist_cross.avg_mps_bytes, seq_cross.avg_mps_bytes));
}

TEST(DistributedGram, InnerProductCountMatchesSymmetricHalving) {
  const idx n = 10;
  const RealMatrix x = random_scaled_data(n, 4, 700);
  GramStats stats;
  distributed_gram_matrix(cfg4(), x, 3, DistributionStrategy::RoundRobin, &stats);
  EXPECT_EQ(stats.inner_products, n * (n - 1) / 2);
}

TEST(DistributedGram, MoreRanksThanPoints) {
  const RealMatrix x = random_scaled_data(3, 4, 800);
  const RealMatrix expect = gram_matrix(cfg4(), x);
  const RealMatrix got =
      distributed_gram_matrix(cfg4(), x, 6, DistributionStrategy::RoundRobin);
  EXPECT_LT(max_abs_diff(got, expect), 1e-12);
}

TEST(DistributedGram, ResultIsSymmetric) {
  const RealMatrix x = random_scaled_data(9, 4, 900);
  for (auto strategy : {DistributionStrategy::RoundRobin,
                        DistributionStrategy::NoMessaging}) {
    const RealMatrix k = distributed_gram_matrix(cfg4(), x, 3, strategy);
    EXPECT_EQ(symmetry_defect(k), 0.0);
  }
}

TEST(DistributedGram, RanksRunKernelsSerially) {
  // Each rank is one core: an Accelerated gemm inside a rank must not fork
  // a team of its own (R ranks x an OpenMP team would oversubscribe).
  // Twelve features at d = 3 reach bond ~50, past the blocked gemm's fork
  // threshold.
  QuantumKernelConfig cfg;
  cfg.ansatz = {.num_features = 12, .layers = 2, .distance = 3, .gamma = 1.0};
  cfg.sim.policy = linalg::ExecPolicy::Accelerated;
  const RealMatrix x = random_scaled_data(6, 12, 900);
  linalg::kernel_probe_reset();
  distributed_gram_matrix(cfg, x, 3, DistributionStrategy::RoundRobin);
  EXPECT_LE(linalg::kernel_probe_peak(), 3);
  linalg::kernel_probe_reset();
  distributed_cross_kernel(cfg, x, x, 3);
  EXPECT_LE(linalg::kernel_probe_peak(), 3);
}

TEST(DistributedGram, GramFromStatesHonorsTheCallerBudget) {
  const RealMatrix x = random_scaled_data(12, 4, 901);
  const auto states = simulate_states(cfg4(), x);
  const linalg::KernelThreadScope scope(2);
  linalg::kernel_probe_reset();
  gram_from_states(states, linalg::ExecPolicy::Reference);
  EXPECT_LE(linalg::kernel_probe_peak(), 2);
}

}  // namespace
}  // namespace qkmps::kernel
