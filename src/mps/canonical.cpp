#include "mps/canonical.hpp"

#include <algorithm>

#include "linalg/gemm.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

/// Per-thread canonicalization buffers. thread_local, so concurrent
/// simulations never share one, and a warm thread's center moves reuse
/// the heap blocks for every bond that fits what it has seen.
struct CanonicalWorkspace {
  linalg::Matrix site;      ///< the center site, matricized
  linalg::Matrix neighbour; ///< the site absorbing R (or L), matricized
  linalg::Matrix merged;    ///< R * neighbour (or neighbour * L)
  linalg::QrResult qr;
  linalg::LqResult lq;
  linalg::QrWorkspace factor;
};

CanonicalWorkspace& workspace() {
  thread_local CanonicalWorkspace ws;
  return ws;
}

/// m <- t's storage read as a rows x (size / rows) matrix: a reshape of the
/// row-major site, so a straight copy.
void stage(linalg::Matrix& m, const SiteTensor& t, idx rows) {
  m.resize_for_overwrite(rows, static_cast<idx>(t.a.size()) / rows);
  std::copy(t.a.begin(), t.a.end(), m.data());
}

}  // namespace

void shift_center_right(Mps& psi, linalg::ExecPolicy policy) {
  const idx c = psi.center();
  QKMPS_CHECK(c + 1 < psi.num_sites());
  CanonicalWorkspace& ws = workspace();

  SiteTensor& s = psi.site(c);
  stage(ws.site, s, 2 * s.left);
  linalg::qr_thin_into(ws.site, ws.qr, ws.factor);
  s.assign_left_matrix(ws.qr.q, s.left);

  SiteTensor& t = psi.site(c + 1);
  // next <- R * next over the shared bond.
  stage(ws.neighbour, t, t.left);
  linalg::gemm_into(ws.merged, ws.qr.r, ws.neighbour, policy);
  t.assign_right_matrix(ws.merged, t.right);
  psi.set_center(c + 1);
}

void shift_center_left(Mps& psi, linalg::ExecPolicy policy) {
  const idx c = psi.center();
  QKMPS_CHECK(c - 1 >= 0);
  CanonicalWorkspace& ws = workspace();

  SiteTensor& s = psi.site(c);
  stage(ws.site, s, s.left);
  linalg::lq_thin_into(ws.site, ws.lq, ws.factor);
  s.assign_right_matrix(ws.lq.q, s.right);

  SiteTensor& t = psi.site(c - 1);
  stage(ws.neighbour, t, 2 * t.left);
  linalg::gemm_into(ws.merged, ws.neighbour, ws.lq.l, policy);
  t.assign_left_matrix(ws.merged, t.left);
  psi.set_center(c - 1);
}

void move_center(Mps& psi, idx target, linalg::ExecPolicy policy) {
  QKMPS_CHECK(target >= 0 && target < psi.num_sites());
  while (psi.center() < target) shift_center_right(psi, policy);
  while (psi.center() > target) shift_center_left(psi, policy);
}

double left_orthonormality_defect(const Mps& psi, idx site) {
  const linalg::Matrix m = psi.site(site).as_left_matrix();
  return linalg::orthonormality_defect(m);
}

double right_orthonormality_defect(const Mps& psi, idx site) {
  // Right-orthonormal means the (left | physical,right) matricization has
  // orthonormal rows.
  const linalg::Matrix m = psi.site(site).as_right_matrix().adjoint();
  return linalg::orthonormality_defect(m);
}

}  // namespace qkmps::mps
