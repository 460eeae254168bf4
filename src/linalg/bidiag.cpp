#include "linalg/bidiag.hpp"

#include <vector>

#include "linalg/householder.hpp"

namespace qkmps::linalg {

Bidiagonalization bidiagonalize(const Matrix& a, ExecPolicy policy) {
  Bidiagonalization out;
  BidiagWorkspace ws;
  bidiagonalize_into(a, policy, out, ws);
  return out;
}

void bidiagonalize_into(const Matrix& a, ExecPolicy policy,
                        Bidiagonalization& out, BidiagWorkspace& ws) {
  const idx m = a.rows(), n = a.cols();
  QKMPS_CHECK_MSG(m >= n && n >= 1, "bidiagonalize requires m >= n >= 1");
  const bool parallel =
      policy == ExecPolicy::Accelerated && n >= kParallelSvdThreshold;

  Matrix& work = ws.work;
  work = a;  // vector copy-assign reuses the existing block when it fits
  out.d.assign(static_cast<std::size_t>(n), 0.0);
  out.e.assign(static_cast<std::size_t>(n > 0 ? n - 1 : 0), 0.0);

  // The reflector stacks only grow: shrinking would free the heap blocks
  // of the trailing reflectors that a later, wider call needs again.
  if (ws.lefts.size() < static_cast<std::size_t>(n))
    ws.lefts.resize(static_cast<std::size_t>(n));
  if (ws.rights.size() < static_cast<std::size_t>(n))
    ws.rights.resize(static_cast<std::size_t>(n));

  std::vector<cplx>& buf = ws.buf;
  for (idx k = 0; k < n; ++k) {
    // Left reflector: map column k (rows k..m-1) to d[k] e_1 with d[k] real.
    buf.resize(static_cast<std::size_t>(m - k));
    for (idx r = k; r < m; ++r) buf[static_cast<std::size_t>(r - k)] = work(r, k);
    Reflector& hl = ws.lefts[static_cast<std::size_t>(k)];
    make_reflector_into(buf.data(), m - k, hl);
    apply_reflector_left(work, hl, k, k + 1, n, parallel);
    out.d[static_cast<std::size_t>(k)] = hl.beta;
    work(k, k) = hl.beta;
    for (idx r = k + 1; r < m; ++r) work(r, k) = 0.0;

    if (k < n - 1) {
      // Right reflector: map row k (cols k+1..n-1) to e[k] e_1^T with e[k]
      // real; also annihilates everything beyond the superdiagonal.
      buf.resize(static_cast<std::size_t>(n - k - 1));
      for (idx c = k + 1; c < n; ++c) buf[static_cast<std::size_t>(c - k - 1)] = work(k, c);
      Reflector& hr = ws.rights[static_cast<std::size_t>(k)];
      make_reflector_into(buf.data(), n - k - 1, hr);
      apply_reflector_right(work, hr, k + 1, m, k + 1, parallel);
      out.e[static_cast<std::size_t>(k)] = hr.beta;
      work(k, k + 1) = hr.beta;
      for (idx c = k + 2; c < n; ++c) work(k, c) = 0.0;
    }
  }

  // U = H_0^H H_1^H ... H_{n-1}^H [I_n; 0], accumulated in reverse so the
  // thin factor is built directly (cf. LAPACK zungbr backward accumulation).
  out.u.resize(m, n);
  for (idx i = 0; i < n; ++i) out.u(i, i) = 1.0;
  for (idx k = n - 1; k >= 0; --k)
    apply_reflector_adjoint_left(out.u, ws.lefts[static_cast<std::size_t>(k)], k);

  // V = W_0 W_1 ... W_{n-2}, where W_k acts on rows k+1..n-1.
  out.v.resize(n, n);
  for (idx i = 0; i < n; ++i) out.v(i, i) = 1.0;
  for (idx k = n - 2; k >= 0; --k)
    apply_reflector_w_left(out.v, ws.rights[static_cast<std::size_t>(k)], k + 1);
}

}  // namespace qkmps::linalg
