#include "circuit/routing.hpp"

namespace qkmps::circuit {

Circuit route_to_chain(const Circuit& c) {
  Circuit out(c.num_qubits());
  for_each_chain_gate(c, [&out](const Gate& g) { out.append(g); });
  return out;
}

idx routing_swap_count(const Circuit& c) {
  idx swaps = 0;
  for (const Gate& g : c.gates()) {
    if (!g.is_two_qubit()) continue;
    const idx k = std::abs(g.q0 - g.q1);
    if (k > 1) swaps += 2 * (k - 1);
  }
  return swaps;
}

}  // namespace qkmps::circuit
