#include <gtest/gtest.h>

#include <cmath>

#include "circuit/ansatz.hpp"
#include "circuit/statevector.hpp"
#include "mps/gate_application.hpp"
#include "mps/observables.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace qkmps::mps {
namespace {

/// <P_q> from the dense statevector as the oracle.
double sv_expectation(const circuit::Statevector& sv, idx q,
                      const cplx p[2][2]) {
  const idx m = sv.num_qubits();
  const idx stride = idx{1} << (m - 1 - q);
  const auto& amps = sv.amplitudes();
  cplx acc = 0.0;
  for (idx i = 0; i < static_cast<idx>(amps.size()); ++i) {
    const idx bit = (i & stride) ? 1 : 0;
    for (idx sp = 0; sp < 2; ++sp) {
      if (p[sp][bit] == cplx(0.0)) continue;
      const idx flipped = (sp == bit) ? i : (i ^ stride);
      acc += std::conj(amps[static_cast<std::size_t>(flipped)]) * p[sp][bit] *
             amps[static_cast<std::size_t>(i)];
    }
  }
  return acc.real();
}

Mps ansatz_state(idx m, std::uint64_t seed, circuit::Circuit* out_circ = nullptr) {
  Rng rng(seed);
  const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = 2,
                                .gamma = 0.8};
  const circuit::Circuit c =
      circuit::feature_map_circuit(p, qkmps::testing::random_features(m, rng));
  if (out_circ != nullptr) *out_circ = c;
  MpsSimulator sim;
  return sim.simulate(c).state;
}

TEST(Observables, PlusStateExpectations) {
  Mps psi = Mps::plus_state(4);
  for (idx q = 0; q < 4; ++q) {
    EXPECT_NEAR(expectation_x(psi, q), 1.0, 1e-13);
    EXPECT_NEAR(expectation_y(psi, q), 0.0, 1e-13);
    EXPECT_NEAR(expectation_z(psi, q), 0.0, 1e-13);
  }
}

TEST(Observables, ZeroStateExpectations) {
  Mps psi(3);
  for (idx q = 0; q < 3; ++q) {
    EXPECT_NEAR(expectation_x(psi, q), 0.0, 1e-13);
    EXPECT_NEAR(expectation_z(psi, q), 1.0, 1e-13);
  }
}

TEST(Observables, MatchStatevectorOnEntangledState) {
  circuit::Circuit c(1);
  Mps psi = ansatz_state(6, 1, &c);
  const circuit::Statevector sv = circuit::simulate_statevector(c);

  static const cplx px[2][2] = {{0.0, 1.0}, {1.0, 0.0}};
  static const cplx py[2][2] = {{0.0, cplx(0.0, -1.0)}, {cplx(0.0, 1.0), 0.0}};
  static const cplx pz[2][2] = {{1.0, 0.0}, {0.0, -1.0}};
  for (idx q = 0; q < 6; ++q) {
    EXPECT_NEAR(expectation_x(psi, q), sv_expectation(sv, q, px), 1e-8) << q;
    EXPECT_NEAR(expectation_y(psi, q), sv_expectation(sv, q, py), 1e-8) << q;
    EXPECT_NEAR(expectation_z(psi, q), sv_expectation(sv, q, pz), 1e-8) << q;
  }
}

TEST(Observables, FeatureVectorLayout) {
  Mps psi = ansatz_state(5, 2);
  const auto f = pauli_feature_vector(psi);
  ASSERT_EQ(f.size(), 15u);
  Mps copy = psi;
  EXPECT_NEAR(f[0], expectation_x(copy, 0), 1e-10);
  EXPECT_NEAR(f[3 * 2 + 2], expectation_z(copy, 2), 1e-10);
}

TEST(Observables, ExpectationsAreBounded) {
  Mps psi = ansatz_state(7, 3);
  const auto f = pauli_feature_vector(psi);
  for (double v : f) {
    EXPECT_GE(v, -1.0 - 1e-10);
    EXPECT_LE(v, 1.0 + 1e-10);
  }
}

TEST(Observables, BlochVectorNormAtMostOne) {
  // |<X>|^2 + |<Y>|^2 + |<Z>|^2 <= 1, with equality iff the qubit is pure
  // (unentangled with the rest).
  Mps psi = ansatz_state(6, 4);
  const auto f = pauli_feature_vector(psi);
  for (std::size_t q = 0; q < 6; ++q) {
    const double r2 = f[3 * q] * f[3 * q] + f[3 * q + 1] * f[3 * q + 1] +
                      f[3 * q + 2] * f[3 * q + 2];
    EXPECT_LE(r2, 1.0 + 1e-10);
  }
}

TEST(Observables, ProductStateHasUnitBlochVector) {
  Mps psi = Mps::plus_state(4);
  const auto f = pauli_feature_vector(psi);
  for (std::size_t q = 0; q < 4; ++q) {
    const double r2 = f[3 * q] * f[3 * q] + f[3 * q + 1] * f[3 * q + 1] +
                      f[3 * q + 2] * f[3 * q + 2];
    EXPECT_NEAR(r2, 1.0, 1e-12);
  }
}

TEST(Observables, ZzCorrelatorOnBellPair) {
  // (|00> + |11>)/sqrt(2): <Z_0 Z_1> = 1 while <Z_0> = <Z_1> = 0.
  Mps psi(2);
  apply_single_qubit_gate(psi, circuit::make_h(0).unitary(), 0);
  TruncationConfig trunc;
  // CNOT-like entangler via RXX + single-qubit dressing is overkill; build
  // the Bell state directly as a bond-2 MPS.
  SiteTensor a(1, 2), b(2, 1);
  const double h = 1.0 / std::sqrt(2.0);
  a.at(0, 0, 0) = h;
  a.at(0, 1, 1) = h;
  b.at(0, 0, 0) = 1.0;
  b.at(1, 1, 0) = 1.0;
  psi.site(0) = a;
  psi.site(1) = b;
  psi.set_center(0);

  EXPECT_NEAR(correlation_zz(psi, 0), 1.0, 1e-12);
  EXPECT_NEAR(expectation_z(psi, 0), 0.0, 1e-12);
  EXPECT_NEAR(expectation_z(psi, 1), 0.0, 1e-12);
}

TEST(Observables, ZzFactorizesOnProductStates) {
  Mps psi(3);
  apply_single_qubit_gate(psi, circuit::make_rx(1, 0.7).unitary(), 1);
  Mps copy = psi;
  const double z1 = expectation_z(copy, 1);
  const double z2 = expectation_z(copy, 2);
  EXPECT_NEAR(correlation_zz(psi, 1), z1 * z2, 1e-12);
}

}  // namespace
}  // namespace qkmps::mps
