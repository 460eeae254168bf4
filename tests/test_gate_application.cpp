#include <gtest/gtest.h>

#include <cmath>

#include "circuit/statevector.hpp"
#include "mps/gate_application.hpp"
#include "mps/mps.hpp"
#include "test_helpers.hpp"

namespace qkmps::mps {
namespace {

double compare_to_statevector(const Mps& psi, const circuit::Statevector& sv) {
  const auto v = psi.to_statevector();
  double diff = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i)
    diff = std::max(diff, std::abs(v[i] - sv.amplitudes()[i]));
  return diff;
}

TEST(GateApplication, SingleQubitGateMatchesStatevector) {
  Mps psi = Mps::plus_state(4);
  circuit::Statevector sv(4);
  for (idx q = 0; q < 4; ++q) sv.apply(circuit::make_h(q));

  const circuit::Gate g = circuit::make_rz(2, 0.8);
  apply_single_qubit_gate(psi, g.unitary(), 2);
  sv.apply(g);
  EXPECT_LT(compare_to_statevector(psi, sv), 1e-14);
}

TEST(GateApplication, SingleQubitGatePreservesBonds) {
  Mps psi = Mps::plus_state(4);
  apply_single_qubit_gate(psi, circuit::make_h(1).unitary(), 1);
  EXPECT_EQ(psi.max_bond(), 1);
}

TEST(GateApplication, AdjacentRxxMatchesStatevector) {
  Mps psi = Mps::plus_state(4);
  circuit::Statevector sv(4);
  for (idx q = 0; q < 4; ++q) sv.apply(circuit::make_h(q));

  const circuit::Gate g = circuit::make_rxx(1, 2, 0.9);
  TruncationConfig trunc;
  apply_gate(psi, g, trunc, linalg::ExecPolicy::Reference);
  sv.apply(g);
  EXPECT_LT(compare_to_statevector(psi, sv), 1e-13);
}

TEST(GateApplication, ReversedOperandOrderMatches) {
  // RXX is symmetric, so use an asymmetric composite: SWAP then RXX with
  // different single-qubit dressing — here test the permutation fix by
  // applying a gate with q0 > q1 and comparing against the statevector.
  Mps psi = Mps::plus_state(3);
  circuit::Statevector sv(3);
  for (idx q = 0; q < 3; ++q) sv.apply(circuit::make_h(q));
  psi = Mps::plus_state(3);

  // Make the state asymmetric first.
  const circuit::Gate rz = circuit::make_rz(2, 1.3);
  apply_single_qubit_gate(psi, rz.unitary(), 2);
  sv.apply(rz);

  const circuit::Gate g = circuit::make_rxx(2, 1, 0.7);  // q0 > q1
  TruncationConfig trunc;
  apply_gate(psi, g, trunc, linalg::ExecPolicy::Reference);
  sv.apply(g);
  EXPECT_LT(compare_to_statevector(psi, sv), 1e-13);
}

TEST(GateApplication, SwapGateViaMps) {
  Mps psi(3);
  // Prepare |100>.
  apply_single_qubit_gate(psi, circuit::make_x(0).unitary(), 0);
  TruncationConfig trunc;
  apply_gate(psi, circuit::make_swap(0, 1), trunc, linalg::ExecPolicy::Reference);
  const auto v = psi.to_statevector();
  EXPECT_NEAR(std::abs(v[2] - cplx(1.0)), 0.0, 1e-13);  // |010>
}

TEST(GateApplication, NonAdjacentGateThrows) {
  Mps psi = Mps::plus_state(4);
  TruncationConfig trunc;
  EXPECT_THROW(
      apply_gate(psi, circuit::make_rxx(0, 2, 0.5), trunc,
                 linalg::ExecPolicy::Reference),
      Error);
}

TEST(GateApplication, BondGrowsByAtMostFactorTwo) {
  Mps psi = Mps::plus_state(6);
  TruncationConfig trunc;
  idx prev_bond = psi.max_bond();
  Rng rng(3);
  for (int i = 0; i < 8; ++i) {
    const idx q = static_cast<idx>(rng.uniform_int(5));
    apply_gate(psi, circuit::make_rxx(q, q + 1, rng.uniform(0.1, 2.0)), trunc,
               linalg::ExecPolicy::Reference);
    EXPECT_LE(psi.max_bond(), 2 * prev_bond);
    prev_bond = psi.max_bond();
  }
}

TEST(GateApplication, RxxZeroSingularValuesAreDropped) {
  // Footnote 5: RXX has operator Schmidt rank 2, so on |00> it creates a
  // state of Schmidt rank exactly 2 (cos|00> - i sin|11>); the two zero
  // singular values must be truncated away rather than kept as bond 4.
  Mps psi(2);
  TruncationConfig trunc;
  apply_gate(psi, circuit::make_rxx(0, 1, 0.7), trunc,
             linalg::ExecPolicy::Reference);
  EXPECT_EQ(psi.bond(0), 2);
}

TEST(GateApplication, RxxOnXxEigenstateKeepsBondOne) {
  // |++> is an XX eigenstate: RXX only adds a global phase, so exact-zero
  // truncation must keep the product structure (bond 1).
  Mps psi = Mps::plus_state(2);
  TruncationConfig trunc;
  apply_gate(psi, circuit::make_rxx(0, 1, 0.7), trunc,
             linalg::ExecPolicy::Reference);
  EXPECT_EQ(psi.bond(0), 1);
}

TEST(GateApplication, MaxBondCapIsEnforced) {
  TruncationConfig trunc;
  trunc.max_bond = 2;
  Mps psi = Mps::plus_state(6);
  TruncationStats stats;
  Rng rng(4);
  for (int pass = 0; pass < 3; ++pass)
    for (idx q = 0; q < 5; ++q)
      apply_gate(psi, circuit::make_rxx(q, q + 1, rng.uniform(0.3, 1.8)), trunc,
                 linalg::ExecPolicy::Reference, &stats);
  EXPECT_LE(psi.max_bond(), 2);
  EXPECT_GT(stats.total_discarded_weight, 0.0);  // cap forces real truncation
}

TEST(GateApplication, TruncationStatsAccumulate) {
  Mps psi = Mps::plus_state(5);
  TruncationConfig trunc;
  TruncationStats stats;
  Rng rng(5);
  for (idx q = 0; q < 4; ++q)
    apply_gate(psi, circuit::make_rxx(q, q + 1, rng.uniform(0.3, 1.8)), trunc,
               linalg::ExecPolicy::Reference, &stats);
  EXPECT_EQ(stats.truncation_count, 4);
  EXPECT_GE(stats.max_bond_seen, psi.max_bond());
  EXPECT_GE(stats.fidelity_lower_bound(), 1.0 - 1e-12);
}

TEST(GateApplication, LongGateSequenceMatchesStatevector) {
  Rng rng(6);
  Mps psi = Mps::plus_state(6);
  circuit::Statevector sv(6);
  for (idx q = 0; q < 6; ++q) sv.apply(circuit::make_h(q));
  TruncationConfig trunc;
  for (int i = 0; i < 30; ++i) {
    const idx q = static_cast<idx>(rng.uniform_int(5));
    const circuit::Gate g2 = circuit::make_rxx(q, q + 1, rng.uniform(-2.0, 2.0));
    apply_gate(psi, g2, trunc, linalg::ExecPolicy::Reference);
    sv.apply(g2);
    const circuit::Gate g1 = circuit::make_rz(static_cast<idx>(rng.uniform_int(6)),
                                              rng.uniform(-2.0, 2.0));
    apply_gate(psi, g1, trunc, linalg::ExecPolicy::Reference);
    sv.apply(g1);
  }
  EXPECT_LT(compare_to_statevector(psi, sv), 1e-7);
  EXPECT_NEAR(psi.norm(), 1.0, 1e-10);
}

}  // namespace
}  // namespace qkmps::mps
