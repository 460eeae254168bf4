#pragma once

#include "linalg/policy.hpp"
#include "mps/mps.hpp"

namespace qkmps::mps {

/// <a|b> via the zipper contraction of Fig. 2: sweep left to right keeping
/// an environment matrix E (chi_a x chi_b); per site, E is extended by one
/// column of the ladder, first through B, then through A^H. Time
/// O(m chi^3), memory O(chi^2) — the kernel whose CPU/GPU crossover
/// Fig. 5b studies.
///
/// The contraction runs in a per-thread workspace (E, the half-step and
/// the next E), so a warm thread makes no heap allocation per call.
/// `Reference` reads the site tensors in place, `Accelerated` stages them
/// for the blocked gemm; both are bitwise equal to two `linalg::gemm`
/// calls on the matricized sites. Safe to call from any number of threads.
cplx inner_product(const Mps& a, const Mps& b,
                   linalg::ExecPolicy policy = linalg::ExecPolicy::Reference);

/// Kernel entry K = |<a|b>|^2 (Eq. 1).
double overlap_squared(const Mps& a, const Mps& b,
                       linalg::ExecPolicy policy = linalg::ExecPolicy::Reference);

}  // namespace qkmps::mps
