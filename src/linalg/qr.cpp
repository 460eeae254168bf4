#include "linalg/qr.hpp"

namespace qkmps::linalg {

namespace {

/// out <- a^H, reusing out's heap block.
void adjoint_into(Matrix& out, const Matrix& a) {
  out.resize_for_overwrite(a.cols(), a.rows());
  for (idx i = 0; i < a.rows(); ++i)
    for (idx j = 0; j < a.cols(); ++j) out(j, i) = std::conj(a(i, j));
}

}  // namespace

QrResult qr_thin(const Matrix& a) {
  QrResult out;
  QrWorkspace ws;
  qr_thin_into(a, out, ws);
  return out;
}

LqResult lq_thin(const Matrix& a) {
  LqResult out;
  QrWorkspace ws;
  lq_thin_into(a, out, ws);
  return out;
}

void qr_thin_into(const Matrix& a, QrResult& out, QrWorkspace& ws) {
  const idx m = a.rows(), n = a.cols();
  QKMPS_CHECK(m > 0 && n > 0);
  const idx k = std::min(m, n);

  Matrix& work = ws.work;
  work = a;  // vector copy-assign reuses the existing block when it fits
  // The reflector stack only grows, so every slot keeps its heap block.
  if (ws.hs.size() < static_cast<std::size_t>(k))
    ws.hs.resize(static_cast<std::size_t>(k));

  for (idx j = 0; j < k; ++j) {
    // Column j, rows j..m-1 -> beta e1.
    ws.col.resize(static_cast<std::size_t>(m - j));
    for (idx r = j; r < m; ++r) ws.col[static_cast<std::size_t>(r - j)] = work(r, j);
    Reflector& h = ws.hs[static_cast<std::size_t>(j)];
    make_reflector_into(ws.col.data(), m - j, h);
    apply_reflector_left(work, h, j, j + 1, n);
    work(j, j) = h.beta;
    for (idx r = j + 1; r < m; ++r) work(r, j) = 0.0;
  }

  out.r.resize(k, n);
  for (idx i = 0; i < k; ++i)
    for (idx j = i; j < n; ++j) out.r(i, j) = work(i, j);

  // Q = H_0^H H_1^H ... H_{k-1}^H [I_k; 0], built by reverse application so
  // the thin factor never needs the full m x m product.
  out.q.resize(m, k);
  for (idx i = 0; i < k; ++i) out.q(i, i) = 1.0;
  for (idx j = k - 1; j >= 0; --j)
    apply_reflector_adjoint_left(out.q, ws.hs[static_cast<std::size_t>(j)], j);
}

void lq_thin_into(const Matrix& a, LqResult& out, QrWorkspace& ws) {
  adjoint_into(ws.adj, a);
  qr_thin_into(ws.adj, ws.qr, ws);
  adjoint_into(out.l, ws.qr.r);
  adjoint_into(out.q, ws.qr.q);
}

}  // namespace qkmps::linalg
