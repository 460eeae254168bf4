#pragma once

#include <array>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/policy.hpp"
#include "util/types.hpp"

namespace qkmps::mps {

/// One MPS site tensor with shape (left bond, physical = 2, right bond),
/// stored row-major: a[(l * 2 + s) * right + r].
struct SiteTensor {
  idx left = 1;
  idx right = 1;
  std::vector<cplx> a;

  SiteTensor() : a(2, cplx(0.0)) {}
  SiteTensor(idx l, idx r) : left(l), right(r), a(static_cast<std::size_t>(l * 2 * r)) {}

  cplx& at(idx l, idx s, idx r) {
    return a[static_cast<std::size_t>((l * 2 + s) * right + r)];
  }
  const cplx& at(idx l, idx s, idx r) const {
    return a[static_cast<std::size_t>((l * 2 + s) * right + r)];
  }

  /// Matricize grouping (left, physical) as rows: (2*left) x right.
  linalg::Matrix as_left_matrix() const;
  /// Matricize grouping (physical, right) as columns: left x (2*right).
  linalg::Matrix as_right_matrix() const;

  static SiteTensor from_left_matrix(const linalg::Matrix& m, idx left);
  static SiteTensor from_right_matrix(const linalg::Matrix& m, idx right);

  /// The same reshapes written into this tensor in place: the heap block
  /// is reused whenever it is large enough, so it may keep slack capacity.
  void assign_left_matrix(const linalg::Matrix& m, idx left);
  void assign_right_matrix(const linalg::Matrix& m, idx right);

  std::size_t bytes() const { return a.size() * sizeof(cplx); }
};

/// Matrix Product State on a linear chain of qubits (Sec. II-B). Maintains
/// a mixed-canonical form: sites left of `center()` are left-orthonormal,
/// sites right of it are right-orthonormal. That invariant is exactly what
/// makes per-bond SVD truncation globally optimal (the paper's
/// "canonicalization is applied before each SVD truncation").
class Mps {
 public:
  /// |0...0> product state.
  explicit Mps(idx num_sites);

  /// Resets to the |0...0> product state on `num_sites` sites, keeping each
  /// surviving site's heap block (a reused simulation working state).
  void reset(idx num_sites);

  /// |+>^m — the paper's initial state (Eq. 2).
  static Mps plus_state(idx num_sites);
  /// Product state from per-site 2-vectors.
  static Mps product_state(const std::vector<std::array<cplx, 2>>& amps);

  idx num_sites() const { return static_cast<idx>(sites_.size()); }
  const SiteTensor& site(idx i) const { return sites_[static_cast<std::size_t>(i)]; }
  SiteTensor& site(idx i) { return sites_[static_cast<std::size_t>(i)]; }

  idx center() const { return center_; }
  void set_center(idx c) { center_ = c; }

  /// Bond dimension between sites i and i+1.
  idx bond(idx i) const { return sites_[static_cast<std::size_t>(i)].right; }
  /// Largest virtual bond dimension — the chi that drives the O(m chi^3)
  /// costs (Table I reports its average over data points).
  idx max_bond() const;
  std::vector<idx> bonds() const;

  /// Total heap footprint of the site tensors in bytes; the quantity
  /// plotted in Fig. 6 and tabulated ("Memory per MPS") in Table I.
  std::size_t memory_bytes() const;

  /// sqrt(<psi|psi>).
  double norm(linalg::ExecPolicy policy = linalg::ExecPolicy::Reference) const;

  /// Scales the state so norm() == 1.
  void normalize(linalg::ExecPolicy policy = linalg::ExecPolicy::Reference);

  /// Dense amplitude vector (qubit 0 = most significant bit); exponential,
  /// test-only, guarded to small m.
  std::vector<cplx> to_statevector() const;

 private:
  std::vector<SiteTensor> sites_;
  idx center_ = 0;
};

}  // namespace qkmps::mps
