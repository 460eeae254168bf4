#include "circuit/gate.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace qkmps::circuit {

namespace {
const cplx kI(0.0, 1.0);
}

GateMatrix Gate::unitary() const {
  GateMatrix m;
  m.dim = (kind == GateKind::RXX || kind == GateKind::SWAP) ? 4 : 2;
  switch (kind) {
    case GateKind::H: {
      const double s = 1.0 / std::sqrt(2.0);
      m(0, 0) = s;
      m(0, 1) = s;
      m(1, 0) = s;
      m(1, 1) = -s;
      return m;
    }
    case GateKind::X:
      m(0, 1) = 1.0;
      m(1, 0) = 1.0;
      return m;
    case GateKind::Z:
      m(0, 0) = 1.0;
      m(1, 1) = -1.0;
      return m;
    case GateKind::RZ:
      m(0, 0) = std::exp(-kI * (angle / 2.0));
      m(1, 1) = std::exp(kI * (angle / 2.0));
      return m;
    case GateKind::RX: {
      const double c = std::cos(angle / 2.0), s = std::sin(angle / 2.0);
      m(0, 0) = c;
      m(0, 1) = -kI * s;
      m(1, 0) = -kI * s;
      m(1, 1) = c;
      return m;
    }
    case GateKind::RXX: {
      const double c = std::cos(angle / 2.0), s = std::sin(angle / 2.0);
      // exp(-i t XX / 2): cos on the diagonal, -i sin on the anti-diagonal.
      for (idx i = 0; i < 4; ++i) m(i, i) = c;
      m(0, 3) = -kI * s;
      m(1, 2) = -kI * s;
      m(2, 1) = -kI * s;
      m(3, 0) = -kI * s;
      return m;
    }
    case GateKind::SWAP:
      m(0, 0) = 1.0;
      m(1, 2) = 1.0;
      m(2, 1) = 1.0;
      m(3, 3) = 1.0;
      return m;
  }
  throw Error("unknown gate kind");
}

linalg::Matrix Gate::matrix() const {
  const GateMatrix u = unitary();
  linalg::Matrix m(u.dim, u.dim);
  std::copy(u.a.begin(), u.a.begin() + u.dim * u.dim, m.data());
  return m;
}

std::string Gate::name() const {
  switch (kind) {
    case GateKind::H: return "H";
    case GateKind::X: return "X";
    case GateKind::Z: return "Z";
    case GateKind::RZ: return "RZ";
    case GateKind::RX: return "RX";
    case GateKind::RXX: return "RXX";
    case GateKind::SWAP: return "SWAP";
  }
  return "?";
}

Gate make_h(idx q) { return {GateKind::H, q, -1, 0.0}; }
Gate make_x(idx q) { return {GateKind::X, q, -1, 0.0}; }
Gate make_z(idx q) { return {GateKind::Z, q, -1, 0.0}; }
Gate make_rz(idx q, double angle) { return {GateKind::RZ, q, -1, angle}; }
Gate make_rx(idx q, double angle) { return {GateKind::RX, q, -1, angle}; }

Gate make_rxx(idx q0, idx q1, double angle) {
  QKMPS_CHECK(q0 != q1);
  return {GateKind::RXX, q0, q1, angle};
}

Gate make_swap(idx q0, idx q1) {
  QKMPS_CHECK(q0 != q1);
  return {GateKind::SWAP, q0, q1, 0.0};
}

}  // namespace qkmps::circuit
