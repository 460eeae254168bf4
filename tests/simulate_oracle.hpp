#pragma once

/// The simulator as it was before its per-thread workspaces, kept as the
/// oracle of the allocation-light one: every canonical move, gemm and SVD
/// returns freshly allocated matrices (qr_thin / lq_thin / gemm / svd) and
/// every site is rebuilt with from_left_matrix / from_right_matrix.
/// MpsSimulator's simulate, simulate_into, simulate_batch and
/// kernel::simulate_states must match it bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "circuit/routing.hpp"
#include "linalg/gemm.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "mps/simulator.hpp"

namespace qkmps::testing {

using linalg::ExecPolicy;
using mps::Mps;
using mps::SimulationResult;
using mps::SimulatorConfig;
using mps::SiteTensor;
using mps::TruncationStats;

inline void oracle_shift_right(Mps& psi, ExecPolicy policy) {
  const idx c = psi.center();
  SiteTensor& s = psi.site(c);
  const linalg::QrResult qr = linalg::qr_thin(s.as_left_matrix());
  s = SiteTensor::from_left_matrix(qr.q, s.left);
  SiteTensor& t = psi.site(c + 1);
  const linalg::Matrix merged = linalg::gemm(qr.r, t.as_right_matrix(), policy);
  t = SiteTensor::from_right_matrix(merged, t.right);
  psi.set_center(c + 1);
}

inline void oracle_shift_left(Mps& psi, ExecPolicy policy) {
  const idx c = psi.center();
  SiteTensor& s = psi.site(c);
  const linalg::LqResult lq = linalg::lq_thin(s.as_right_matrix());
  s = SiteTensor::from_right_matrix(lq.q, s.right);
  SiteTensor& t = psi.site(c - 1);
  const linalg::Matrix merged = linalg::gemm(t.as_left_matrix(), lq.l, policy);
  t = SiteTensor::from_left_matrix(merged, t.left);
  psi.set_center(c - 1);
}

inline void oracle_two_qubit(Mps& psi, const linalg::Matrix& u, idx q,
                             const SimulatorConfig& cfg,
                             TruncationStats& stats) {
  while (psi.center() < q) oracle_shift_right(psi, cfg.policy);
  while (psi.center() > q + 1) oracle_shift_left(psi, cfg.policy);
  const idx dl = psi.site(q).left, dr = psi.site(q + 1).right;
  const linalg::Matrix theta = linalg::gemm(psi.site(q).as_left_matrix(),
                                            psi.site(q + 1).as_right_matrix(),
                                            cfg.policy);
  linalg::Matrix theta_p(4, dl * dr);
  for (idx s0 = 0; s0 < 2; ++s0)
    for (idx s1 = 0; s1 < 2; ++s1)
      for (idx l = 0; l < dl; ++l)
        for (idx r = 0; r < dr; ++r)
          theta_p(s0 * 2 + s1, l * dr + r) = theta(l * 2 + s0, s1 * dr + r);
  const linalg::Matrix theta_u = linalg::gemm(u, theta_p, cfg.policy);
  linalg::Matrix theta_m(dl * 2, 2 * dr);
  for (idx s0 = 0; s0 < 2; ++s0)
    for (idx s1 = 0; s1 < 2; ++s1)
      for (idx l = 0; l < dl; ++l)
        for (idx r = 0; r < dr; ++r)
          theta_m(l * 2 + s0, s1 * dr + r) = theta_u(s0 * 2 + s1, l * dr + r);
  linalg::SvdResult f = linalg::svd(theta_m, cfg.policy);
  const idx keep = linalg::truncation_rank(
      f.s, cfg.truncation.max_discarded_weight, cfg.truncation.max_bond);
  double discarded = 0.0;
  for (std::size_t i = static_cast<std::size_t>(keep); i < f.s.size(); ++i)
    discarded += f.s[i] * f.s[i];
  linalg::truncate_svd(f, keep);
  psi.site(q) = SiteTensor::from_left_matrix(f.u, dl);
  for (idx i = 0; i < keep; ++i)
    for (idx j = 0; j < f.vh.cols(); ++j)
      f.vh(i, j) *= f.s[static_cast<std::size_t>(i)];
  psi.site(q + 1) = SiteTensor::from_right_matrix(f.vh, dr);
  psi.set_center(q + 1);
  stats.record(discarded, keep);
}

inline SimulationResult oracle_simulate(const circuit::Circuit& c,
                                        const SimulatorConfig& cfg) {
  const circuit::Circuit routed =
      c.is_nearest_neighbour() ? c : circuit::route_to_chain(c);
  SimulationResult out{Mps(c.num_qubits()), {}, {}, 0.0, 0};
  for (const circuit::Gate& g : routed.gates()) {
    const linalg::Matrix u = g.matrix();
    if (!g.is_two_qubit()) {
      SiteTensor& t = out.state.site(g.q0);
      for (idx l = 0; l < t.left; ++l)
        for (idx r = 0; r < t.right; ++r) {
          const cplx a0 = t.at(l, 0, r), a1 = t.at(l, 1, r);
          t.at(l, 0, r) = u(0, 0) * a0 + u(0, 1) * a1;
          t.at(l, 1, r) = u(1, 0) * a0 + u(1, 1) * a1;
        }
    } else {
      linalg::Matrix chain = u;
      if (g.q0 > g.q1) {
        const auto flip = [](idx b) { return ((b & 1) << 1) | (b >> 1); };
        for (idx i = 0; i < 4; ++i)
          for (idx j = 0; j < 4; ++j) chain(flip(i), flip(j)) = u(i, j);
      }
      oracle_two_qubit(out.state, chain, std::min(g.q0, g.q1), cfg,
                       out.truncation);
    }
    ++out.gates_applied;
  }
  return out;
}

/// Same shapes, same center and memcmp-equal site data.
inline ::testing::AssertionResult same_state(const Mps& got, const Mps& want) {
  if (got.num_sites() != want.num_sites() || got.center() != want.center())
    return ::testing::AssertionFailure() << "sites or center differ";
  for (idx i = 0; i < got.num_sites(); ++i) {
    const SiteTensor& a = got.site(i);
    const SiteTensor& b = want.site(i);
    if (a.left != b.left || a.right != b.right || a.a.size() != b.a.size() ||
        std::memcmp(a.a.data(), b.a.data(), a.a.size() * sizeof(cplx)) != 0)
      return ::testing::AssertionFailure() << "site " << i << " differs";
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult same_stats(const TruncationStats& got,
                                             const TruncationStats& want) {
  if (std::memcmp(&got.total_discarded_weight, &want.total_discarded_weight,
                  sizeof(double)) != 0 ||
      std::memcmp(&got.discarded_compensation, &want.discarded_compensation,
                  sizeof(double)) != 0 ||
      got.truncation_count != want.truncation_count ||
      got.max_bond_seen != want.max_bond_seen)
    return ::testing::AssertionFailure() << "truncation stats differ";
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult exact_size(const Mps& psi) {
  for (idx i = 0; i < psi.num_sites(); ++i)
    if (psi.site(i).a.capacity() != psi.site(i).a.size())
      return ::testing::AssertionFailure() << "site " << i << " has slack";
  return ::testing::AssertionSuccess();
}

}  // namespace qkmps::testing
