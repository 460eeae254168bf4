#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "linalg/gemm.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "mps/mps.hpp"
#include "util/rng.hpp"

namespace qkmps::testing {

/// Random complex matrix with iid standard-normal entries.
inline linalg::Matrix random_matrix(idx rows, idx cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (idx i = 0; i < rows; ++i)
    for (idx j = 0; j < cols; ++j) m(i, j) = rng.normal_cplx();
  return m;
}

/// U * diag(s) * Vh reassembly.
inline linalg::Matrix reconstruct(const linalg::SvdResult& f) {
  linalg::Matrix us = f.u;
  for (idx i = 0; i < us.rows(); ++i)
    for (idx j = 0; j < us.cols(); ++j)
      us(i, j) *= f.s[static_cast<std::size_t>(j)];
  return linalg::gemm_reference(us, f.vh);
}

/// Random feature vector in the open interval (0, 2) — the ansatz domain.
inline std::vector<double> random_features(idx m, Rng& rng) {
  std::vector<double> x(static_cast<std::size_t>(m));
  for (auto& v : x) v = rng.uniform(0.05, 1.95);
  return x;
}

/// Random circuit over the full gate vocabulary. Two-qubit gates act on
/// adjacent sites when `nearest_neighbour_only` is set, and on arbitrary
/// (distinct) pairs otherwise — the latter exercises the routing pass when
/// fed to the MPS simulator.
inline circuit::Circuit random_circuit(idx m, idx num_gates, Rng& rng,
                                       bool nearest_neighbour_only = false) {
  circuit::Circuit c(m);
  for (idx g = 0; g < num_gates; ++g) {
    const auto kind = rng.uniform_int(7);
    const idx q0 = static_cast<idx>(rng.uniform_int(static_cast<std::uint64_t>(m)));
    const double angle = rng.uniform(-kPi, kPi);
    switch (kind) {
      case 0: c.h(q0); break;
      case 1: c.x(q0); break;
      case 2: c.z(q0); break;
      case 3: c.rz(q0, angle); break;
      case 4: c.rx(q0, angle); break;
      default: {
        if (m < 2) { c.h(q0); break; }
        idx a = q0, b;
        if (nearest_neighbour_only) {
          a = static_cast<idx>(rng.uniform_int(static_cast<std::uint64_t>(m - 1)));
          b = a + 1;
        } else {
          do {
            b = static_cast<idx>(rng.uniform_int(static_cast<std::uint64_t>(m)));
          } while (b == a);
        }
        if (kind == 5) c.rxx(a, b, angle);
        else c.swap(a, b);
        break;
      }
    }
  }
  return c;
}

/// <a|b> = sum_i conj(a_i) b_i over dense amplitude vectors.
inline cplx dense_inner_product(const std::vector<cplx>& a,
                                const std::vector<cplx>& b) {
  cplx acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::conj(a[i]) * b[i];
  return acc;
}

/// Max elementwise |a_i - b_i| between dense amplitude vectors.
inline double max_amplitude_diff(const std::vector<cplx>& a,
                                 const std::vector<cplx>& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    diff = std::max(diff, std::abs(a[i] - b[i]));
  return diff;
}

/// 1 - |<a|b>|^2: the infidelity of state b against reference a.
inline double dense_infidelity(const std::vector<cplx>& a,
                               const std::vector<cplx>& b) {
  return 1.0 - std::norm(dense_inner_product(a, b));
}

/// <P_q> from a dense amplitude vector, qubit 0 = most significant bit
/// (matching Statevector and Mps::to_statevector). `pauli` is 'X', 'Y',
/// or 'Z'.
inline double dense_pauli_expectation(const std::vector<cplx>& amps, idx m,
                                      idx q, char pauli) {
  const std::size_t mask = std::size_t{1} << (m - 1 - q);
  cplx acc = 0.0;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const bool one = (i & mask) != 0;
    switch (pauli) {
      case 'Z':
        acc += std::conj(amps[i]) * amps[i] * (one ? -1.0 : 1.0);
        break;
      case 'X':
        acc += std::conj(amps[i]) * amps[i ^ mask];
        break;
      case 'Y':
        acc += std::conj(amps[i]) * amps[i ^ mask] * cplx(0.0, one ? 1.0 : -1.0);
        break;
      default:
        ADD_FAILURE() << "unknown Pauli " << pauli;
    }
  }
  return acc.real();
}

/// <Z_q Z_{q+1}> from a dense amplitude vector.
inline double dense_zz_correlation(const std::vector<cplx>& amps, idx m, idx q) {
  const std::size_t mask0 = std::size_t{1} << (m - 1 - q);
  const std::size_t mask1 = std::size_t{1} << (m - 2 - q);
  double acc = 0.0;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const double sign =
        (((i & mask0) != 0) != ((i & mask1) != 0)) ? -1.0 : 1.0;
    acc += std::norm(amps[i]) * sign;
  }
  return acc;
}

/// Unnormalized MPS with iid normal entries and bonds drawn from
/// [min_bond, max_bond] (boundaries 1). Not a physical state: it reaches
/// bond shapes a short simulation cannot, so two chains' bonds differ and
/// no site need be square.
inline mps::Mps random_mps(idx m, idx max_bond, Rng& rng, idx min_bond = 1) {
  mps::Mps out(m);
  idx left = 1;
  for (idx i = 0; i < m; ++i) {
    const idx right =
        i + 1 == m ? 1
                   : min_bond + static_cast<idx>(rng.uniform_int(
                                    static_cast<std::uint64_t>(
                                        max_bond - min_bond + 1)));
    mps::SiteTensor t(left, right);
    for (auto& v : t.a) v = rng.normal_cplx();
    out.site(i) = std::move(t);
    left = right;
  }
  return out;
}

}  // namespace qkmps::testing
