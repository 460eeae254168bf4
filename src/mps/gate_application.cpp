#include "mps/gate_application.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "mps/canonical.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

/// The serial path's buffers, reused gate after gate. thread_local, so
/// concurrent simulations (simulate_states workers, serving lanes) never
/// share one, and a warm thread's gates stop allocating once the bond
/// dimensions fit what it has seen.
struct SerialWorkspace {
  TwoQubitStep step;
  linalg::SvdWorkspace svd;
};

}  // namespace

void apply_single_qubit_gate(Mps& psi, const circuit::GateMatrix& u, idx q) {
  QKMPS_CHECK(q >= 0 && q < psi.num_sites());
  QKMPS_CHECK(u.dim == 2);
  SiteTensor& t = psi.site(q);
  for (idx l = 0; l < t.left; ++l) {
    for (idx r = 0; r < t.right; ++r) {
      const cplx a0 = t.at(l, 0, r);
      const cplx a1 = t.at(l, 1, r);
      t.at(l, 0, r) = u(0, 0) * a0 + u(0, 1) * a1;
      t.at(l, 1, r) = u(1, 0) * a0 + u(1, 1) * a1;
    }
  }
}

void stage_two_qubit_gate(Mps& psi, const circuit::GateMatrix& u, idx q,
                          TwoQubitStep& step, linalg::ExecPolicy policy) {
  QKMPS_CHECK(q >= 0 && q + 1 < psi.num_sites());
  QKMPS_CHECK(u.dim == 4);

  // Canonicalize so the bond (q, q+1) is optimal to truncate.
  if (psi.center() < q) move_center(psi, q, policy);
  if (psi.center() > q + 1) move_center(psi, q + 1, policy);

  const SiteTensor& a = psi.site(q);
  const SiteTensor& b = psi.site(q + 1);
  step.q = q;
  step.dl = a.left;
  step.dr = b.right;
  step.k = a.right;
  QKMPS_CHECK(b.left == step.k);

  step.gate.resize_for_overwrite(4, 4);
  std::copy(u.a.begin(), u.a.end(), step.gate.data());
  // The (left, physical) x right and left x (physical, right) groupings
  // are reshapes of the row-major site storage — straight copies into the
  // step's persistent buffers.
  step.a_left.resize_for_overwrite(step.dl * 2, step.k);
  std::copy(a.a.begin(), a.a.end(), step.a_left.data());
  step.b_right.resize_for_overwrite(step.k, 2 * step.dr);
  std::copy(b.a.begin(), b.a.end(), step.b_right.data());
}

void permute_theta_for_gate(TwoQubitStep& step) {
  // theta[l, s0, s1, r] -> theta_p[(s0 s1), (l r)]: the gate contraction
  // becomes a plain 4 x (dl*dr) GEMM.
  const idx dl = step.dl, dr = step.dr;
  step.theta_p.resize_for_overwrite(4, dl * dr);
  for (idx s0 = 0; s0 < 2; ++s0)
    for (idx s1 = 0; s1 < 2; ++s1)
      for (idx l = 0; l < dl; ++l)
        for (idx r = 0; r < dr; ++r)
          step.theta_p(s0 * 2 + s1, l * dr + r) =
              step.theta(l * 2 + s0, s1 * dr + r);
}

void permute_theta_for_svd(TwoQubitStep& step) {
  // Back to ((l s0), (s1 r)) layout for the bipartition SVD.
  const idx dl = step.dl, dr = step.dr;
  step.theta_m.resize_for_overwrite(dl * 2, 2 * dr);
  for (idx s0 = 0; s0 < 2; ++s0)
    for (idx s1 = 0; s1 < 2; ++s1)
      for (idx l = 0; l < dl; ++l)
        for (idx r = 0; r < dr; ++r)
          step.theta_m(l * 2 + s0, s1 * dr + r) =
              step.theta_u(s0 * 2 + s1, l * dr + r);
}

double commit_two_qubit_gate(Mps& psi, TwoQubitStep& step,
                             const TruncationConfig& trunc,
                             TruncationStats* stats) {
  linalg::SvdResult& f = step.f;
  for (const double s : f.s)
    QKMPS_CHECK_MSG(std::isfinite(s), "two-qubit gate on bond "
                                          << step.q
                                          << " produced a non-finite amplitude");
  const idx keep =
      linalg::truncation_rank(f.s, trunc.max_discarded_weight, trunc.max_bond);
  double discarded = 0.0;
  for (std::size_t i = static_cast<std::size_t>(keep); i < f.s.size(); ++i)
    discarded += f.s[i] * f.s[i];
  linalg::truncate_svd(f, keep);

  // Left site gets U (left-orthonormal); the singular values are contracted
  // into the right factor (Fig. 1b, last step), so the center lands on q+1.
  // Both sites are rewritten in place.
  psi.site(step.q).assign_left_matrix(f.u, step.dl);
  for (idx i = 0; i < keep; ++i) {
    const double s = f.s[static_cast<std::size_t>(i)];
    for (idx j = 0; j < f.vh.cols(); ++j) f.vh(i, j) *= s;
  }
  psi.site(step.q + 1).assign_right_matrix(f.vh, step.dr);
  psi.set_center(step.q + 1);

  if (stats != nullptr) stats->record(discarded, keep);
  return discarded;
}

double apply_adjacent_two_qubit_gate(Mps& psi, const circuit::GateMatrix& u,
                                     idx q, const TruncationConfig& trunc,
                                     linalg::ExecPolicy policy,
                                     TruncationStats* stats) {
  // The serial path runs the same four phases the batched driver submits
  // to the batched kernel layer — one arithmetic path for both.
  thread_local SerialWorkspace ws;
  TwoQubitStep& step = ws.step;
  stage_two_qubit_gate(psi, u, q, step, policy);
  linalg::gemm_into(step.theta, step.a_left, step.b_right, policy);
  permute_theta_for_gate(step);
  linalg::gemm_into(step.theta_u, step.gate, step.theta_p, policy);
  permute_theta_for_svd(step);
  linalg::svd_into(step.theta_m, policy, step.f, ws.svd);
  return commit_two_qubit_gate(psi, step, trunc, stats);
}

circuit::GateMatrix chain_ordered_gate(const circuit::Gate& g) {
  const circuit::GateMatrix u = g.unitary();
  if (g.q0 < g.q1) return u;
  // Gate matrix is in |q0 q1> order; sites want |lo hi>. Conjugate by the
  // qubit-swap permutation of the 4x4 matrix.
  circuit::GateMatrix w;
  w.dim = 4;
  const auto flip = [](idx b) { return ((b & 1) << 1) | (b >> 1); };
  for (idx i = 0; i < 4; ++i)
    for (idx j = 0; j < 4; ++j) w(flip(i), flip(j)) = u(i, j);
  return w;
}

void apply_gate(Mps& psi, const circuit::Gate& g, const TruncationConfig& trunc,
                linalg::ExecPolicy policy, TruncationStats* stats) {
  if (!g.is_two_qubit()) {
    apply_single_qubit_gate(psi, g.unitary(), g.q0);
    return;
  }
  QKMPS_CHECK_MSG(std::abs(g.q0 - g.q1) == 1,
                  "non-adjacent two-qubit gate; route the circuit first");
  const idx lo = std::min(g.q0, g.q1);
  apply_adjacent_two_qubit_gate(psi, chain_ordered_gate(g), lo, trunc, policy,
                                stats);
}

}  // namespace qkmps::mps
