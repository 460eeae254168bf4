#pragma once

#include <array>
#include <string>

#include "linalg/matrix.hpp"
#include "util/types.hpp"

namespace qkmps::circuit {

/// Gate vocabulary of the feature-map ansatz (Fig. 3 of the paper) plus the
/// SWAPs inserted by routing. Angle conventions are the standard
/// half-angle ones: RZ(t) = exp(-i t Z / 2), RXX(t) = exp(-i t XX / 2);
/// the ansatz builder converts Hamiltonian coefficients accordingly.
enum class GateKind {
  H,
  X,
  Z,
  RZ,
  RX,
  RXX,
  SWAP,
};

/// A gate's unitary in fixed-size, row-major storage: 2x2 (dim 2) for
/// single-qubit gates, 4x4 (dim 4) for two-qubit gates. Building one never
/// touches the heap, which is why the simulator's per-gate path takes it
/// instead of a linalg::Matrix.
struct GateMatrix {
  idx dim = 2;
  std::array<cplx, 16> a{};

  cplx& operator()(idx i, idx j) { return a[static_cast<std::size_t>(i * dim + j)]; }
  const cplx& operator()(idx i, idx j) const {
    return a[static_cast<std::size_t>(i * dim + j)];
  }
};

struct Gate {
  GateKind kind;
  idx q0 = 0;
  idx q1 = -1;        ///< second qubit for two-qubit gates, -1 otherwise
  double angle = 0.0;  ///< rotation angle for RZ/RX/RXX

  bool is_two_qubit() const { return q1 >= 0; }

  /// Single-qubit gates: 2x2 unitary. Two-qubit gates: 4x4 unitary in the
  /// basis |q0 q1> with q0 the more significant bit.
  GateMatrix unitary() const;
  /// unitary() as a heap linalg::Matrix, for dense-algebra callers.
  linalg::Matrix matrix() const;

  /// Gates of the same kind acting on disjoint qubits always commute; RXX
  /// gates commute with each other even on overlapping qubits (they share
  /// the XX eigenbasis) — the property exploited by the depth scheduler.
  static bool rxx_commute() { return true; }

  std::string name() const;
};

/// Convenience constructors.
Gate make_h(idx q);
Gate make_x(idx q);
Gate make_z(idx q);
Gate make_rz(idx q, double angle);
Gate make_rx(idx q, double angle);
Gate make_rxx(idx q0, idx q1, double angle);
Gate make_swap(idx q0, idx q1);

}  // namespace qkmps::circuit
