#pragma once

#include <utility>
#include <vector>

#include "linalg/householder.hpp"
#include "linalg/matrix.hpp"

namespace qkmps::linalg {

/// Result of a thin orthogonal factorization.
struct QrResult {
  Matrix q;  ///< m x k with orthonormal columns (k = min(m, n))
  Matrix r;  ///< k x n upper triangular
};

struct LqResult {
  Matrix l;  ///< m x k lower triangular (k = min(m, n))
  Matrix q;  ///< k x n with orthonormal rows
};

/// Thin Householder QR: A = Q R. Used by the MPS canonicalization sweeps
/// (left-orthogonalization of site tensors).
QrResult qr_thin(const Matrix& a);

/// Thin LQ: A = L Q, computed as the adjoint of qr_thin(A^H). Used by the
/// right-orthogonalization sweeps.
LqResult lq_thin(const Matrix& a);

/// Reusable scratch for the _into variants: the working copy, the column
/// gather buffer, the reflector stack and the adjoint staging all keep
/// their heap blocks across calls.
struct QrWorkspace {
  Matrix work;
  std::vector<cplx> col;
  std::vector<Reflector> hs;
  Matrix adj;    ///< A^H, lq_thin_into only
  QrResult qr;   ///< QR of A^H, lq_thin_into only
};

/// Same factorizations written into caller-owned results, reusing the heap
/// blocks `out` and `ws` already own; a warm caller allocates nothing.
/// Bitwise-identical to qr_thin / lq_thin (same kernels on the same
/// values), which are these with a fresh workspace.
void qr_thin_into(const Matrix& a, QrResult& out, QrWorkspace& ws);
void lq_thin_into(const Matrix& a, LqResult& out, QrWorkspace& ws);

}  // namespace qkmps::linalg
