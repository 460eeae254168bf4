#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "circuit/ansatz.hpp"
#include "circuit/statevector.hpp"
#include "linalg/gemm.hpp"
#include "mps/gate_application.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace qkmps::mps {
namespace {

struct StatePair {
  Mps mps;
  circuit::Statevector sv;
  StatePair(idx m, std::uint64_t seed, idx d = 2)
      : mps(m), sv(m) {
    Rng rng(seed);
    const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = d,
                                  .gamma = 0.8};
    const circuit::Circuit c =
        circuit::feature_map_circuit(p, qkmps::testing::random_features(m, rng));
    MpsSimulator sim;
    mps = sim.simulate(c).state;
    sv.apply(c);
  }
};

/// The two-gemm zipper the workspace kernel replaced, kept as the oracle:
/// matricized copies of every site, an adjoint copy, two gemm() results.
cplx gemm_zipper(const Mps& a, const Mps& b, linalg::ExecPolicy policy) {
  linalg::Matrix env(1, 1);
  env(0, 0) = 1.0;
  for (idx i = 0; i < a.num_sites(); ++i) {
    const SiteTensor& sa = a.site(i);
    const SiteTensor& sb = b.site(i);
    const linalg::Matrix t = linalg::gemm(env, sb.as_right_matrix(), policy);
    linalg::Matrix t2(sa.left * 2, sb.right);
    std::copy(t.data(), t.data() + t.size(), t2.data());
    env = linalg::gemm(sa.as_left_matrix(), t2, policy, linalg::Op::ConjT,
                       linalg::Op::None);
  }
  return env(0, 0);
}

bool same_bits(cplx x, cplx y) { return std::memcmp(&x, &y, sizeof(cplx)) == 0; }

using qkmps::testing::random_mps;

TEST(InnerProduct, BitwiseEqualToGemmZipperOnUnevenBonds) {
  Rng rng(42);
  for (const auto policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    for (int trial = 0; trial < 40; ++trial) {
      const idx m = 1 + static_cast<idx>(rng.uniform_int(9));
      const Mps a = random_mps(m, 12, rng);
      const Mps b = random_mps(m, 12, rng);
      const cplx want = gemm_zipper(a, b, policy);
      const cplx got = inner_product(a, b, policy);
      EXPECT_TRUE(same_bits(got, want))
          << to_string(policy) << " trial " << trial << ": " << got
          << " vs " << want;
    }
  }
}

TEST(InnerProduct, WarmWorkspaceStaysBitwiseAcrossShrinkingBonds) {
  // A large pair grows the thread's buffers; smaller pairs after it must
  // not read stale entries from the larger shapes.
  Rng rng(43);
  const Mps big_a = random_mps(6, 12, rng), big_b = random_mps(6, 12, rng);
  const Mps small_a = random_mps(6, 2, rng), small_b = random_mps(6, 3, rng);
  for (const auto policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
    for (int round = 0; round < 2; ++round) {
      EXPECT_TRUE(same_bits(inner_product(big_a, big_b, policy),
                            gemm_zipper(big_a, big_b, policy)));
      EXPECT_TRUE(same_bits(inner_product(small_a, small_b, policy),
                            gemm_zipper(small_a, small_b, policy)));
    }
  }
}

TEST(InnerProduct, SimulatedStatesBitwiseEqualToGemmZipper) {
  const StatePair a(8, 10, 3), b(8, 11, 3);
  for (const auto policy :
       {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated})
    EXPECT_TRUE(same_bits(inner_product(a.mps, b.mps, policy),
                          gemm_zipper(a.mps, b.mps, policy)));
}

TEST(InnerProduct, SelfOverlapIsOne) {
  const StatePair a(6, 1);
  const cplx ip = inner_product(a.mps, a.mps);
  EXPECT_NEAR(ip.real(), 1.0, 1e-10);
  EXPECT_NEAR(ip.imag(), 0.0, 1e-10);
}

TEST(InnerProduct, MatchesStatevector) {
  const StatePair a(7, 2), b(7, 3);
  const cplx expect = a.sv.inner_product(b.sv);
  const cplx got = inner_product(a.mps, b.mps);
  EXPECT_NEAR(std::abs(expect - got), 0.0, 1e-8);
}

TEST(InnerProduct, ConjugateSymmetry) {
  const StatePair a(5, 4), b(5, 5);
  const cplx ab = inner_product(a.mps, b.mps);
  const cplx ba = inner_product(b.mps, a.mps);
  EXPECT_NEAR(std::abs(ab - std::conj(ba)), 0.0, 1e-12);
}

TEST(InnerProduct, OverlapSquaredIsAbsSquare) {
  const StatePair a(5, 6), b(5, 7);
  const cplx ip = inner_product(a.mps, b.mps);
  EXPECT_NEAR(overlap_squared(a.mps, b.mps), std::norm(ip), 1e-14);
}

TEST(InnerProduct, OrthogonalProductStates) {
  Mps zero(3);
  Mps one(3);
  // |111>.
  for (idx q = 0; q < 3; ++q)
    apply_single_qubit_gate(one, circuit::make_x(q).unitary(), q);
  EXPECT_NEAR(std::abs(inner_product(zero, one)), 0.0, 1e-15);
}

TEST(InnerProduct, PoliciesAgree) {
  const StatePair a(6, 8), b(6, 9);
  const cplx r = inner_product(a.mps, b.mps, linalg::ExecPolicy::Reference);
  const cplx acc = inner_product(a.mps, b.mps, linalg::ExecPolicy::Accelerated);
  EXPECT_NEAR(std::abs(r - acc), 0.0, 1e-12);
}

TEST(InnerProduct, MismatchedSitesThrow) {
  Mps a(3), b(4);
  EXPECT_THROW(inner_product(a, b), Error);
}

TEST(InnerProduct, KernelEntryInZeroOneRange) {
  // |<a|b>|^2 of normalized states is a valid kernel entry in [0, 1].
  for (std::uint64_t s = 0; s < 6; ++s) {
    const StatePair a(5, 100 + s), b(5, 200 + s);
    const double k = overlap_squared(a.mps, b.mps);
    EXPECT_GE(k, 0.0);
    EXPECT_LE(k, 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace qkmps::mps
