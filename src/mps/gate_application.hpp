#pragma once

#include "circuit/gate.hpp"
#include "linalg/policy.hpp"
#include "linalg/svd.hpp"
#include "mps/mps.hpp"
#include "mps/truncation.hpp"

namespace qkmps::mps {

/// Applies a single-qubit gate to site q: a pure contraction with the site
/// tensor (Fig. 1a); bond dimensions are unchanged and no truncation is
/// needed.
void apply_single_qubit_gate(Mps& psi, const circuit::GateMatrix& u, idx q);

/// Applies a two-qubit gate on adjacent sites (q, q+1) following Fig. 1b:
/// move the orthogonality center to the bond, contract the two site tensors
/// with the gate into a theta tensor, SVD, truncate per `trunc` (Eq. 8),
/// and absorb the singular values into the right factor (leaving the center
/// at q+1). `u` is 4x4 in the |q, q+1> basis. Returns the discarded weight.
/// The phases run in a per-thread TwoQubitStep and SVD workspace and the
/// two sites are rewritten in place, so a warm thread applies the gate
/// without touching the heap.
double apply_adjacent_two_qubit_gate(Mps& psi, const circuit::GateMatrix& u,
                                     idx q, const TruncationConfig& trunc,
                                     linalg::ExecPolicy policy,
                                     TruncationStats* stats = nullptr);

/// Gate dispatcher: routes 1q gates to the contraction path and adjacent 2q
/// gates to the SVD path. Non-adjacent 2q gates are a precondition
/// violation — run circuit::route_to_chain first.
void apply_gate(Mps& psi, const circuit::Gate& g, const TruncationConfig& trunc,
                linalg::ExecPolicy policy, TruncationStats* stats = nullptr);

/// Staged state of one two-qubit gate application, decomposing Fig. 1b
/// into phases so the batched driver (mps/batched_apply.cpp) can collect
/// the gemm/SVD work of many independent states and submit it to the
/// batched kernel layer (linalg/batched.hpp) in lockstep. All buffers are
/// persistent: a step reused gate after gate resizes them in place, so the
/// per-gate heap churn of the hot loop disappears once bond dimensions
/// stabilize. apply_adjacent_two_qubit_gate runs these exact phases
/// serially — one arithmetic path, so batched and sequential execution
/// are bitwise-identical by construction.
struct TwoQubitStep {
  idx q = 0;                ///< left site of the bond
  idx dl = 0, dr = 0, k = 0;  ///< outer-left, outer-right, shared bond dims
  linalg::Matrix gate;      ///< 4x4 in |lo hi> chain order
  linalg::Matrix a_left;    ///< site q matricized (dl*2) x k
  linalg::Matrix b_right;   ///< site q+1 matricized k x (2*dr)
  linalg::Matrix theta;     ///< a_left * b_right
  linalg::Matrix theta_p;   ///< theta permuted to (s0 s1) x (l r)
  linalg::Matrix theta_u;   ///< gate * theta_p
  linalg::Matrix theta_m;   ///< theta_u permuted to (l s0) x (s1 r)
  linalg::SvdResult f;      ///< SVD of theta_m
};

/// Phase 1: canonicalize the bond (q, q+1) and matricize both site
/// tensors into the step. `u` is copied into step.gate.
void stage_two_qubit_gate(Mps& psi, const circuit::GateMatrix& u, idx q,
                          TwoQubitStep& step, linalg::ExecPolicy policy);

/// Phase 2 (after theta = a_left * b_right): permute into the (s0 s1) x
/// (l r) layout so the gate contraction is a plain 4 x (dl*dr) gemm.
void permute_theta_for_gate(TwoQubitStep& step);

/// Phase 3 (after theta_u = gate * theta_p): permute back to the
/// ((l s0), (s1 r)) bipartition layout for the SVD.
void permute_theta_for_svd(TwoQubitStep& step);

/// Phase 4 (after step.f = svd(theta_m)): truncate per `trunc`, write the
/// two site tensors back in place, land the center at q+1. Returns the
/// discarded weight (and records it into `stats` when non-null). Throws
/// qkmps::Error on a non-finite singular value (a NaN or infinite gate
/// angle), which would otherwise poison every kernel entry silently.
double commit_two_qubit_gate(Mps& psi, TwoQubitStep& step,
                             const TruncationConfig& trunc,
                             TruncationStats* stats);

/// The |q0 q1> -> |lo hi> gate-matrix reordering used by apply_gate for
/// descending-index two-qubit gates; exposed for the batched driver.
circuit::GateMatrix chain_ordered_gate(const circuit::Gate& g);

}  // namespace qkmps::mps
