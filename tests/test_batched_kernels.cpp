/// Parity and thread-budget suite for the batched small-matrix kernel
/// layer (linalg/batched.hpp). The layer's contract is that backends and
/// batching are scheduling choices only: a batched pass must produce
/// results BITWISE identical to calling the per-matrix kernels one at a
/// time, for every backend, and the two ExecPolicy kernel flavours must
/// agree to the repo-wide 1e-10 parity tolerance. The sweep runs as a
/// metamorphic relation over the shape buckets the gate sweep produces
/// (tiny, square, tall, wide, rank-deficient, zero, single-row/column):
/// batch composition and order must never leak into any result.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "circuit/ansatz.hpp"
#include "linalg/batched.hpp"
#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "linalg/policy.hpp"
#include "linalg/svd.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace qkmps {
namespace {

using linalg::ExecPolicy;
using linalg::KernelArena;
using linalg::KernelBackend;
using linalg::KernelBatchConfig;
using linalg::Matrix;
using linalg::SvdResult;

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  const std::size_t n = static_cast<std::size_t>(x.rows() * x.cols());
  return std::memcmp(x.data(), y.data(), n * sizeof(cplx)) == 0;
}

bool bitwise_equal(const SvdResult& x, const SvdResult& y) {
  return x.s.size() == y.s.size() &&
         std::memcmp(x.s.data(), y.s.data(), x.s.size() * sizeof(double)) ==
             0 &&
         bitwise_equal(x.u, y.u) && bitwise_equal(x.vh, y.vh);
}

bool bitwise_equal(const mps::Mps& x, const mps::Mps& y) {
  if (x.num_sites() != y.num_sites() || x.center() != y.center())
    return false;
  for (idx i = 0; i < x.num_sites(); ++i) {
    const auto& sx = x.site(i);
    const auto& sy = y.site(i);
    if (sx.left != sy.left || sx.right != sy.right ||
        sx.a.size() != sy.a.size())
      return false;
    if (std::memcmp(sx.a.data(), sy.a.data(), sx.a.size() * sizeof(cplx)) !=
        0)
      return false;
  }
  return true;
}

/// One labelled matrix per metamorphic shape bucket, repeated `reps`
/// times with fresh random content, then shuffled so no bucket forms a
/// contiguous run in submission order (the pass re-buckets internally).
struct ShapeCase {
  const char* bucket;
  Matrix a;
};

std::vector<ShapeCase> svd_shape_sweep(Rng& rng, int reps) {
  std::vector<ShapeCase> cases;
  for (int r = 0; r < reps; ++r) {
    cases.push_back({"tiny", testing::random_matrix(2, 2, rng)});
    cases.push_back({"square", testing::random_matrix(8, 8, rng)});
    cases.push_back({"tall", testing::random_matrix(16, 4, rng)});
    cases.push_back({"wide", testing::random_matrix(4, 16, rng)});
    cases.push_back(
        {"rank-deficient",
         linalg::gemm_reference(testing::random_matrix(8, 2, rng),
                                testing::random_matrix(2, 8, rng))});
    cases.push_back({"zero", Matrix(6, 5)});
    cases.push_back({"one-col", testing::random_matrix(7, 1, rng)});
    cases.push_back({"one-row", testing::random_matrix(1, 7, rng)});
  }
  std::mt19937 order(12345);
  std::shuffle(cases.begin(), cases.end(), order);
  return cases;
}

/// Conformable (A, B) pairs over the same buckets for the gemm sweep. The
/// last pair crosses kParallelGemmThreshold so the accelerated flavour
/// actually forks a team inside the one-at-a-time reference run.
std::vector<std::pair<Matrix, Matrix>> gemm_shape_sweep(Rng& rng, int reps) {
  std::vector<std::pair<Matrix, Matrix>> cases;
  for (int r = 0; r < reps; ++r) {
    cases.emplace_back(testing::random_matrix(2, 3, rng),
                       testing::random_matrix(3, 2, rng));
    cases.emplace_back(testing::random_matrix(8, 8, rng),
                       testing::random_matrix(8, 8, rng));
    cases.emplace_back(testing::random_matrix(16, 4, rng),
                       testing::random_matrix(4, 6, rng));
    cases.emplace_back(testing::random_matrix(4, 16, rng),
                       testing::random_matrix(16, 3, rng));
    cases.emplace_back(Matrix(6, 5), Matrix(5, 4));
    cases.emplace_back(testing::random_matrix(7, 1, rng),
                       testing::random_matrix(1, 4, rng));
    cases.emplace_back(testing::random_matrix(1, 7, rng),
                       testing::random_matrix(7, 2, rng));
  }
  cases.emplace_back(testing::random_matrix(70, 70, rng),
                     testing::random_matrix(70, 70, rng));
  std::mt19937 order(54321);
  std::shuffle(cases.begin(), cases.end(), order);
  return cases;
}

class BatchedKernels
    : public ::testing::TestWithParam<std::pair<KernelBackend, ExecPolicy>> {
};

TEST_P(BatchedKernels, SvdBitwiseMatchesOneAtATime) {
  const auto [backend, policy] = GetParam();
  Rng rng(31);
  const std::vector<ShapeCase> cases = svd_shape_sweep(rng, 3);

  std::vector<SvdResult> expected;
  for (const ShapeCase& c : cases) expected.push_back(svd(c.a, policy));

  KernelBatchConfig cfg;
  cfg.backend = backend;
  cfg.policy = policy;
  cfg.thread_budget = 4;
  std::vector<SvdResult> got(cases.size());
  std::vector<linalg::SvdTask> tasks;
  for (std::size_t i = 0; i < cases.size(); ++i)
    tasks.push_back({&cases[i].a, &got[i]});
  linalg::batched_svd(tasks, cfg);

  for (std::size_t i = 0; i < cases.size(); ++i)
    EXPECT_TRUE(bitwise_equal(got[i], expected[i]))
        << "bucket=" << cases[i].bucket << " backend=" << to_string(backend)
        << " policy=" << to_string(policy);
}

TEST_P(BatchedKernels, GemmBitwiseMatchesOneAtATime) {
  const auto [backend, policy] = GetParam();
  Rng rng(32);
  const auto cases = gemm_shape_sweep(rng, 3);

  std::vector<Matrix> expected;
  for (const auto& [a, b] : cases)
    expected.push_back(linalg::gemm(a, b, policy));

  KernelBatchConfig cfg;
  cfg.backend = backend;
  cfg.policy = policy;
  cfg.thread_budget = 4;
  std::vector<Matrix> got(cases.size());
  std::vector<linalg::GemmTask> tasks;
  for (std::size_t i = 0; i < cases.size(); ++i)
    tasks.push_back({&cases[i].first, &cases[i].second, &got[i]});
  linalg::batched_gemm(tasks, cfg);

  for (std::size_t i = 0; i < cases.size(); ++i)
    EXPECT_TRUE(bitwise_equal(got[i], expected[i])) << "case " << i;
}

TEST_P(BatchedKernels, BatchCompositionIsPureScheduling) {
  // Metamorphic relation: the same matrix through a singleton batch, a
  // mixed batch, and a differently-ordered mixed batch must come out
  // bitwise identical every time.
  const auto [backend, policy] = GetParam();
  Rng rng(33);
  std::vector<ShapeCase> cases = svd_shape_sweep(rng, 2);

  KernelBatchConfig cfg;
  cfg.backend = backend;
  cfg.policy = policy;
  cfg.thread_budget = 4;

  std::vector<SvdResult> singleton(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::vector<linalg::SvdTask> one{{&cases[i].a, &singleton[i]}};
    linalg::batched_svd(one, cfg);
  }

  std::vector<SvdResult> mixed(cases.size());
  std::vector<linalg::SvdTask> tasks;
  for (std::size_t i = 0; i < cases.size(); ++i)
    tasks.push_back({&cases[i].a, &mixed[i]});
  linalg::batched_svd(tasks, cfg);

  std::vector<SvdResult> reversed(cases.size());
  std::vector<linalg::SvdTask> rev;
  for (std::size_t i = cases.size(); i-- > 0;)
    rev.push_back({&cases[i].a, &reversed[i]});
  linalg::batched_svd(rev, cfg);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(mixed[i], singleton[i]))
        << "bucket=" << cases[i].bucket;
    EXPECT_TRUE(bitwise_equal(mixed[i], reversed[i]))
        << "bucket=" << cases[i].bucket;
  }
}

TEST_P(BatchedKernels, ArenaReuseDoesNotChangeResults) {
  // A long-lived arena (the batched gate-sweep driver's usage pattern)
  // must be invisible: pass after pass through the same warm workspaces
  // stays bitwise stable.
  const auto [backend, policy] = GetParam();
  Rng rng(34);
  const std::vector<ShapeCase> cases = svd_shape_sweep(rng, 2);

  KernelBatchConfig cfg;
  cfg.backend = backend;
  cfg.policy = policy;
  cfg.thread_budget = 4;
  KernelArena arena;

  std::vector<SvdResult> first(cases.size());
  std::vector<linalg::SvdTask> tasks;
  for (std::size_t i = 0; i < cases.size(); ++i)
    tasks.push_back({&cases[i].a, &first[i]});
  linalg::batched_svd(tasks, cfg, &arena);

  for (int rep = 0; rep < 3; ++rep) {
    std::vector<SvdResult> again(cases.size());
    std::vector<linalg::SvdTask> t2;
    for (std::size_t i = 0; i < cases.size(); ++i)
      t2.push_back({&cases[i].a, &again[i]});
    linalg::batched_svd(t2, cfg, &arena);
    for (std::size_t i = 0; i < cases.size(); ++i)
      EXPECT_TRUE(bitwise_equal(again[i], first[i])) << "rep=" << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendPolicyGrid, BatchedKernels,
    ::testing::Values(
        std::make_pair(KernelBackend::kSerial, ExecPolicy::Reference),
        std::make_pair(KernelBackend::kSerial, ExecPolicy::Accelerated),
        std::make_pair(KernelBackend::kOpenMPBatched, ExecPolicy::Reference),
        std::make_pair(KernelBackend::kOpenMPBatched,
                       ExecPolicy::Accelerated)));

TEST(BatchedKernels, CrossPolicyAgreementWithinParityTolerance) {
  // The two kernel flavours are different arithmetic (blocked vs naive
  // loop order), so cross-policy agreement is the 1e-10 parity contract,
  // not bitwise.
  Rng rng(35);
  const std::vector<ShapeCase> cases = svd_shape_sweep(rng, 2);
  KernelBatchConfig ref, acc;
  ref.policy = ExecPolicy::Reference;
  acc.policy = ExecPolicy::Accelerated;

  std::vector<SvdResult> r(cases.size()), a(cases.size());
  std::vector<linalg::SvdTask> tr, ta;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    tr.push_back({&cases[i].a, &r[i]});
    ta.push_back({&cases[i].a, &a[i]});
  }
  linalg::batched_svd(tr, ref);
  linalg::batched_svd(ta, acc);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_EQ(r[i].s.size(), a[i].s.size());
    for (std::size_t k = 0; k < r[i].s.size(); ++k)
      EXPECT_NEAR(r[i].s[k], a[i].s[k], 1e-10 * (r[i].s[0] + 1.0))
          << "bucket=" << cases[i].bucket;
    EXPECT_LT(max_abs_diff(testing::reconstruct(r[i]),
                           testing::reconstruct(a[i])),
              1e-10 * (r[i].s[0] + 1.0))
        << "bucket=" << cases[i].bucket;
  }
}

TEST(BatchedKernels, SimulateBatchBitwiseMatchesSimulate) {
  // The lockstep batched driver against one-circuit-at-a-time simulate():
  // states, truncation stats, and gate counts must be bitwise identical —
  // the end-to-end version of the scheduling-only contract, for both
  // kernel policies, both batch backends and every pass width, with and
  // without truncation. (simulate() itself is pinned to the allocating
  // oracle in test_simulate_parity.)
  Rng rng(36);
  std::vector<circuit::Circuit> circuits;
  for (int i = 0; i < 5; ++i)
    circuits.push_back(testing::random_circuit(6, 24, rng));
  // Routed ansatz circuits at d = 1..3.
  for (idx d = 1; d <= 3; ++d) {
    const circuit::AnsatzParams p{.num_features = 8, .layers = 2,
                                  .distance = d, .gamma = 0.9};
    circuits.push_back(
        circuit::feature_map_circuit(p, testing::random_features(8, rng)));
  }

  for (const ExecPolicy policy :
       {ExecPolicy::Reference, ExecPolicy::Accelerated})
    for (const idx cap : {idx{0}, idx{3}}) {
      mps::SimulatorConfig scfg;
      scfg.policy = policy;
      scfg.truncation.max_bond = cap;
      scfg.track_memory = true;
      const mps::MpsSimulator sim(scfg);

      std::vector<mps::SimulationResult> solo;
      for (const auto& c : circuits) solo.push_back(sim.simulate(c));

      for (const KernelBackend backend :
           {KernelBackend::kSerial, KernelBackend::kOpenMPBatched})
        for (const int budget : {1, 2, 4}) {
          KernelBatchConfig kc;
          kc.backend = backend;
          kc.thread_budget = budget;
          const auto batch = sim.simulate_batch(circuits, kc);
          ASSERT_EQ(batch.size(), circuits.size());
          for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_TRUE(bitwise_equal(batch[i].state, solo[i].state))
                << "circuit " << i << " " << to_string(policy) << " cap "
                << cap << " backend=" << to_string(backend) << " budget "
                << budget;
            EXPECT_EQ(batch[i].gates_applied, solo[i].gates_applied);
            EXPECT_EQ(batch[i].truncation.total_discarded_weight,
                      solo[i].truncation.total_discarded_weight);
            EXPECT_EQ(batch[i].truncation.truncation_count,
                      solo[i].truncation.truncation_count);
            EXPECT_EQ(batch[i].truncation.max_bond_seen,
                      solo[i].truncation.max_bond_seen);
          }
        }
    }
}

TEST(BatchedKernels, BackendNames) {
  EXPECT_EQ(to_string(KernelBackend::kSerial), "serial");
  EXPECT_EQ(to_string(KernelBackend::kOpenMPBatched), "omp-batched");
}

#ifdef _OPENMP

TEST(ThreadBudget, KernelThreadScopeClampsTeamWidth) {
  // The oversubscription regression gate. An accelerated gemm above the
  // parallel threshold forks a full team; the omp-for barrier keeps every
  // member inside the probed region until all arrive, so the observed
  // peak equals the team width deterministically. A scope of 1 must pin
  // the same call to a single thread — and must not change the bits.
  omp_set_dynamic(0);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
  Rng rng(41);
  const Matrix a = testing::random_matrix(70, 70, rng);
  const Matrix b = testing::random_matrix(70, 70, rng);

  linalg::kernel_probe_reset();
  const Matrix wide_team = linalg::gemm(a, b, ExecPolicy::Accelerated);
  EXPECT_EQ(linalg::kernel_probe_peak(), 4);

  {
    linalg::KernelThreadScope scope(1);
    EXPECT_EQ(linalg::KernelThreadScope::current(), 1);
    linalg::kernel_probe_reset();
    const Matrix pinned = linalg::gemm(a, b, ExecPolicy::Accelerated);
    EXPECT_EQ(linalg::kernel_probe_peak(), 1);
    EXPECT_TRUE(bitwise_equal(pinned, wide_team));
  }
  EXPECT_EQ(linalg::KernelThreadScope::current(), 0);
  omp_set_num_threads(saved);
}

TEST(ThreadBudget, ScopesNestAndRestore) {
  linalg::KernelThreadScope outer(3);
  EXPECT_EQ(linalg::KernelThreadScope::current(), 3);
  {
    linalg::KernelThreadScope inner(1);
    EXPECT_EQ(linalg::KernelThreadScope::current(), 1);
  }
  EXPECT_EQ(linalg::KernelThreadScope::current(), 3);
}

TEST(ThreadBudget, BatchedPassHonorsThreadBudget) {
  // The pass team is min(thread_budget, omp max threads); the per-worker
  // probe guards plus the omp-for barrier make the peak exact.
  omp_set_dynamic(0);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(4);
  Rng rng(42);
  const std::vector<ShapeCase> cases = svd_shape_sweep(rng, 2);
  std::vector<SvdResult> out(cases.size());
  std::vector<linalg::SvdTask> tasks;
  for (std::size_t i = 0; i < cases.size(); ++i)
    tasks.push_back({&cases[i].a, &out[i]});

  KernelBatchConfig cfg;
  cfg.backend = KernelBackend::kOpenMPBatched;

  cfg.thread_budget = 3;
  linalg::kernel_probe_reset();
  linalg::batched_svd(tasks, cfg);
  EXPECT_EQ(linalg::kernel_probe_peak(), 3);

  cfg.thread_budget = 8;  // clamped by the OpenMP max
  linalg::kernel_probe_reset();
  linalg::batched_svd(tasks, cfg);
  EXPECT_EQ(linalg::kernel_probe_peak(), 4);

  cfg.thread_budget = 0;  // <= 0 means 1
  linalg::kernel_probe_reset();
  linalg::batched_svd(tasks, cfg);
  EXPECT_EQ(linalg::kernel_probe_peak(), 1);

  omp_set_num_threads(saved);
}

#endif  // _OPENMP

}  // namespace
}  // namespace qkmps
