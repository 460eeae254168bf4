#pragma once

#include <algorithm>
#include <cstdlib>

#include "circuit/circuit.hpp"

namespace qkmps::circuit {

/// Calls visit(g) for every gate of the chain-routed circuit, in order,
/// without building it. A gate on qubits (i, i+k) is wrapped in a ladder
/// of k-1 SWAPs on each side — 2(k-1) extra SWAP gates, exactly the
/// overhead the paper quotes (Sec. II-C). Single-qubit gates and
/// already-adjacent gates pass through unchanged; qubit positions are
/// restored after every gate, so the routed stream computes the identical
/// unitary. The MPS simulator applies this stream straight from the
/// original circuit.
template <typename Visit>
void for_each_chain_gate(const Circuit& c, Visit&& visit) {
  for (const Gate& g : c.gates()) {
    if (!g.is_two_qubit() || std::abs(g.q0 - g.q1) == 1) {
      visit(g);
      continue;
    }
    const idx lo = std::min(g.q0, g.q1);
    const idx hi = std::max(g.q0, g.q1);
    // Walk the low qubit up to position hi-1 ...
    for (idx p = lo; p < hi - 1; ++p) visit(make_swap(p, p + 1));
    // ... apply the gate on the now-adjacent pair, preserving operand
    // order (RXX and SWAP are symmetric, but stay exact regardless):
    Gate moved = g;
    moved.q0 = (g.q0 == lo) ? hi - 1 : hi;
    moved.q1 = (g.q1 == lo) ? hi - 1 : hi;
    visit(moved);
    // ... and walk it back so later gates see the original layout.
    for (idx p = hi - 1; p > lo; --p) visit(make_swap(p - 1, p));
  }
}

/// The routed stream of for_each_chain_gate as a circuit: every two-qubit
/// gate acts on adjacent qubits of the linear chain, the MPS simulator's
/// native constraint.
Circuit route_to_chain(const Circuit& c);

/// Number of SWAPs route_to_chain would insert; used by resource planning
/// and the scaling benches.
idx routing_swap_count(const Circuit& c);

}  // namespace qkmps::circuit
