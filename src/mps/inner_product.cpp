#include "mps/inner_product.hpp"

#include <algorithm>
#include <utility>

#include "linalg/gemm.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

namespace {

/// Per-thread zipper buffers. thread_local, so concurrent overlaps (Gram
/// row workers, serving lanes) never share one, and a warm thread reuses
/// the heap blocks for every pair whose bonds fit what it has seen.
struct ZipperWorkspace {
  linalg::Matrix env;   ///< E, chi_a x chi_b
  linalg::Matrix t;     ///< T = E * B
  linalg::Matrix next;  ///< the extended environment
  // Accelerated only: B and A^H staged as gemm_into operands.
  linalg::Matrix b;
  linalg::Matrix ah;
};

// The Reference steps replay gemm_reference_core's arithmetic (zeroed
// accumulator, i -> p -> j order) on operands read in place, so they are
// bitwise equal to gemm() on the matricized copies.

/// T[ia, (s jb')] = sum_jb E[ia, jb] B[jb, (s jb')], B read from the site.
void extend_right(linalg::Matrix& t, const linalg::Matrix& env,
                  const SiteTensor& sb) {
  const idx la = env.rows(), lb = env.cols(), n = 2 * sb.right;
  t.resize(la, n);
  const cplx* b = sb.a.data();
  for (idx i = 0; i < la; ++i) {
    cplx* ti = t.row(i);
    const cplx* ei = env.row(i);
    for (idx p = 0; p < lb; ++p) {
      const cplx eip = ei[p];
      const cplx* bp = b + p * n;
      for (idx j = 0; j < n; ++j) ti[j] += eip * bp[j];
    }
  }
}

/// E'[ia', jb'] = sum_{(ia s)} conj(A[(ia s), ia']) T[(ia s), jb'], with T
/// read as a (2 chi_a) x chi_b' matrix — row-major makes that reshape free.
void extend_left(linalg::Matrix& next, const SiteTensor& sa,
                 const linalg::Matrix& t, idx right_b) {
  const idx ra = sa.right, k = 2 * sa.left;
  next.resize(ra, right_b);
  const cplx* a = sa.a.data();
  const cplx* tdata = t.data();
  for (idx i = 0; i < ra; ++i) {
    cplx* ni = next.row(i);
    for (idx p = 0; p < k; ++p) {
      const cplx aip = std::conj(a[p * ra + i]);
      const cplx* tp = tdata + p * right_b;
      for (idx j = 0; j < right_b; ++j) ni[j] += aip * tp[j];
    }
  }
}

/// The same two steps through gemm_into's blocked/OpenMP kernel, on
/// operands staged into the workspace (the Fig. 5b accelerated backend).
void extend_accelerated(ZipperWorkspace& ws, const SiteTensor& sa,
                        const SiteTensor& sb) {
  ws.b.resize_for_overwrite(sb.left, 2 * sb.right);
  std::copy(sb.a.begin(), sb.a.end(), ws.b.data());
  linalg::gemm_into(ws.t, ws.env, ws.b, linalg::ExecPolicy::Accelerated);
  ws.t.shrink_to(2 * sa.left, sb.right);  // same size: a pure reshape

  const idx rows = 2 * sa.left, ra = sa.right;
  ws.ah.resize_for_overwrite(ra, rows);
  for (idx p = 0; p < rows; ++p)
    for (idx i = 0; i < ra; ++i)
      ws.ah(i, p) = std::conj(sa.a[static_cast<std::size_t>(p * ra + i)]);
  linalg::gemm_into(ws.next, ws.ah, ws.t, linalg::ExecPolicy::Accelerated);
}

}  // namespace

cplx inner_product(const Mps& a, const Mps& b, linalg::ExecPolicy policy) {
  QKMPS_CHECK(a.num_sites() == b.num_sites());
  const idx m = a.num_sites();
  thread_local ZipperWorkspace ws;

  // E starts as the trivial 1x1 environment.
  ws.env.resize(1, 1);
  ws.env(0, 0) = 1.0;

  for (idx i = 0; i < m; ++i) {
    const SiteTensor& sa = a.site(i);
    const SiteTensor& sb = b.site(i);
    QKMPS_CHECK(sa.left == ws.env.rows() && sb.left == ws.env.cols());
    if (policy == linalg::ExecPolicy::Reference) {
      extend_right(ws.t, ws.env, sb);
      extend_left(ws.next, sa, ws.t, sb.right);
    } else {
      extend_accelerated(ws, sa, sb);
    }
    std::swap(ws.env, ws.next);
  }

  QKMPS_CHECK(ws.env.rows() == 1 && ws.env.cols() == 1);
  return ws.env(0, 0);
}

double overlap_squared(const Mps& a, const Mps& b, linalg::ExecPolicy policy) {
  const cplx ip = inner_product(a, b, policy);
  return ip.real() * ip.real() + ip.imag() * ip.imag();
}

}  // namespace qkmps::mps
