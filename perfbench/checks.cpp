/// Output checks of the qkbench driver. Each one tests a relation the
/// method must satisfy or compares against an independent computation;
/// none compares against stored output.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>

#include "circuit/ansatz.hpp"
#include "circuit/statevector.hpp"
#include "mps/inner_product.hpp"
#include "qkbench.hpp"
#include "util/rng.hpp"

namespace qkbench {

using qkmps::kernel::RealMatrix;

namespace {

/// Entry tolerance for |<a|b>|^2 in [0, 1]: overlaps of normalized,
/// truncated MPS may overshoot 1 by rounding.
constexpr double kUnitTol = 1e-12;

bool in_unit_interval(double v) { return v >= 0.0 && v <= 1.0 + kUnitTol; }

/// In-place Cholesky of a symmetric matrix; false when a pivot is not
/// positive (the matrix is not positive definite).
bool cholesky(std::vector<double>& a, idx n) {
  for (idx j = 0; j < n; ++j) {
    double d = a[static_cast<std::size_t>(j * n + j)];
    for (idx k = 0; k < j; ++k) {
      const double l = a[static_cast<std::size_t>(j * n + k)];
      d -= l * l;
    }
    if (!(d > 0.0)) return false;
    const double root = std::sqrt(d);
    a[static_cast<std::size_t>(j * n + j)] = root;
    for (idx i = j + 1; i < n; ++i) {
      double s = a[static_cast<std::size_t>(i * n + j)];
      for (idx k = 0; k < j; ++k)
        s -= a[static_cast<std::size_t>(i * n + k)] *
             a[static_cast<std::size_t>(j * n + k)];
      a[static_cast<std::size_t>(i * n + j)] = s / root;
    }
  }
  return true;
}

std::vector<double> row_of(const RealMatrix& x, idx i, idx cols) {
  return std::vector<double>(x.row(i), x.row(i) + cols);
}

}  // namespace

void CheckLog::expect(bool ok, const std::string& what) {
  if (ok) return;
  ok_ = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void check_gram(const std::vector<qkmps::mps::Mps>& states,
                const RealMatrix& k, const qkmps::kernel::GramStats& stats,
                double max_discarded, std::uint64_t seed, CheckLog& log) {
  const idx n = k.rows();
  bool unit = true, symmetric = true;
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j) {
      unit = unit && in_unit_interval(k(i, j));
      symmetric = symmetric && k(i, j) == k(j, i);
    }
  log.expect(unit, "Gram entries lie in [0, 1]");
  log.expect(symmetric, "Gram matrix is symmetric");

  qkmps::Rng rng(seed);
  const auto pick = [&] {
    return static_cast<std::size_t>(rng.uniform_int(static_cast<std::uint64_t>(n)));
  };
  for (int t = 0; t < 8; ++t) {
    const auto& s = states[pick()];
    const double self = qkmps::mps::overlap_squared(s, s);
    log.expect(std::abs(self - 1.0) <= 1e-10, "overlap_squared(s, s) == 1");
  }
  for (int t = 0; t < 16; ++t) {
    const std::size_t a = pick(), b = pick();
    const double ab = qkmps::mps::overlap_squared(states[a], states[b]);
    const double ba = qkmps::mps::overlap_squared(states[b], states[a]);
    log.expect(std::abs(ab - ba) <= 1e-12,
               "overlap_squared(b, a) == overlap_squared(a, b)");
  }

  std::vector<double> a(k.data(), k.data() + n * n);
  for (idx i = 0; i < n; ++i) a[static_cast<std::size_t>(i * n + i)] += 1e-9;
  log.expect(cholesky(a, n), "K + 1e-9 I has a Cholesky factor (K is PSD)");

  const double per_circuit =
      stats.total_discarded_weight /
      static_cast<double>(std::max<idx>(stats.circuits_simulated, 1));
  log.expect(per_circuit <= max_discarded,
             "discarded weight per circuit " + std::to_string(per_circuit) +
                 " <= " + std::to_string(max_discarded));
}

void check_cross(const RealMatrix& k_test, CheckLog& log) {
  bool unit = true;
  for (idx i = 0; i < k_test.rows(); ++i)
    for (idx j = 0; j < k_test.cols(); ++j)
      unit = unit && in_unit_interval(k_test(i, j));
  log.expect(unit, "cross-kernel entries lie in [0, 1]");
}

void check_statevector(const qkmps::kernel::QuantumKernelConfig& config,
                       const RealMatrix& x, idx features, CheckLog& log) {
  qkmps::kernel::QuantumKernelConfig small = config;
  small.ansatz.num_features = features;
  qkmps::kernel::QuantumKernelConfig exact = small;
  exact.sim.truncation = {.max_discarded_weight = 0.0, .max_bond = 0};
  const idx rows = std::min<idx>(4, x.rows());
  RealMatrix xs(rows, features);
  for (idx i = 0; i < rows; ++i)
    for (idx j = 0; j < features; ++j) xs(i, j) = x(i, j);

  const auto untruncated = qkmps::kernel::simulate_states(exact, xs);
  const auto truncated = qkmps::kernel::simulate_states(small, xs);
  std::vector<qkmps::circuit::Statevector> dense;
  for (idx i = 0; i < rows; ++i)
    dense.push_back(qkmps::circuit::simulate_statevector(
        qkmps::circuit::feature_map_circuit(small.ansatz,
                                            row_of(xs, i, features))));
  const auto entry = [](const std::vector<qkmps::mps::Mps>& s, idx i, idx j) {
    return qkmps::mps::overlap_squared(s[static_cast<std::size_t>(i)],
                                       s[static_cast<std::size_t>(j)]);
  };
  for (idx i = 0; i < rows; ++i)
    for (idx j = i + 1; j < rows; ++j) {
      const double sv = std::norm(dense[static_cast<std::size_t>(i)].inner_product(
          dense[static_cast<std::size_t>(j)]));
      log.expect(std::abs(entry(untruncated, i, j) - sv) <= 1e-10,
                 "untruncated MPS kernel entry matches the statevector oracle");
      log.expect(std::abs(entry(truncated, i, j) - sv) <= 1e-8,
                 "truncated MPS kernel entry within 1e-8 of the oracle");
    }
}

void check_svc(const qkmps::svm::SvcModel& model, double c,
               const RealMatrix& k_test, const std::vector<double>& decision,
               CheckLog& log) {
  bool boxed = true;
  double balance = 0.0;
  for (std::size_t j = 0; j < model.alpha.size(); ++j) {
    boxed = boxed && model.alpha[j] >= 0.0 && model.alpha[j] <= c;
    balance += model.alpha[j] * static_cast<double>(model.y[j]);
  }
  log.expect(boxed, "0 <= alpha <= C");
  log.expect(std::abs(balance) <= 1e-9, "sum alpha_i y_i == 0");
  log.expect(model.converged, "SMO reports convergence");

  bool match = true;
  for (idx i = 0; i < k_test.rows(); ++i) {
    double f = model.bias;
    for (std::size_t j = 0; j < model.alpha.size(); ++j)
      f += model.alpha[j] * static_cast<double>(model.y[j]) *
           k_test(i, static_cast<idx>(j));
    match = match &&
            std::abs(f - decision[static_cast<std::size_t>(i)]) <= 1e-12;
  }
  log.expect(match, "decision values recomputed from alpha, y, b and K");
}

double pair_count_auc(const std::vector<int>& truth,
                      const std::vector<double>& scores) {
  double above = 0.0, pos = 0.0, neg = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] != 1) {
      neg += 1.0;
      continue;
    }
    pos += 1.0;
    for (std::size_t j = 0; j < truth.size(); ++j) {
      if (truth[j] == 1) continue;
      if (scores[i] > scores[j]) above += 1.0;
      if (scores[i] == scores[j]) above += 0.5;
    }
  }
  return above / (pos * neg);
}

std::vector<double> offline_decisions(const qkmps::serve::ModelBundle& bundle,
                                      const RealMatrix& k_test,
                                      const RealMatrix& x_test, CheckLog& log) {
  const idx n_sv = bundle.num_support_vectors();
  RealMatrix k_sv(k_test.rows(), n_sv);
  for (idx i = 0; i < k_test.rows(); ++i)
    for (idx s = 0; s < n_sv; ++s)
      k_sv(i, s) = k_test(i, bundle.sv_indices[static_cast<std::size_t>(s)]);
  std::vector<double> f = bundle.model.decision_values(k_sv);

  const idx spot = std::min<idx>(3, x_test.rows());
  RealMatrix xs(spot, x_test.cols());
  for (idx i = 0; i < spot; ++i)
    std::copy(x_test.row(i), x_test.row(i) + x_test.cols(), xs.row(i));
  const auto states = qkmps::kernel::simulate_states(bundle.config, xs);
  const RealMatrix k_direct = qkmps::kernel::cross_from_states(
      states, bundle.sv_states, bundle.config.sim.policy);
  const std::vector<double> f_direct = bundle.model.decision_values(k_direct);
  for (idx i = 0; i < spot; ++i)
    log.expect(f_direct[static_cast<std::size_t>(i)] ==
                   f[static_cast<std::size_t>(i)],
               "offline decision value against bundle.sv_states is bitwise "
               "equal to the training-kernel one");
  return f;
}

}  // namespace qkbench
