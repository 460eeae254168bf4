#include "mps/mps.hpp"

#include <array>
#include <cmath>

#include "mps/inner_product.hpp"
#include "util/error.hpp"

namespace qkmps::mps {

linalg::Matrix SiteTensor::as_left_matrix() const {
  linalg::Matrix m(left * 2, right);
  std::copy(a.begin(), a.end(), m.data());
  return m;
}

linalg::Matrix SiteTensor::as_right_matrix() const {
  linalg::Matrix m(left, 2 * right);
  std::copy(a.begin(), a.end(), m.data());
  return m;
}

SiteTensor SiteTensor::from_left_matrix(const linalg::Matrix& m, idx left) {
  SiteTensor t(0, 0);
  t.assign_left_matrix(m, left);
  return t;
}

SiteTensor SiteTensor::from_right_matrix(const linalg::Matrix& m, idx right) {
  SiteTensor t(0, 0);
  t.assign_right_matrix(m, right);
  return t;
}

void SiteTensor::assign_left_matrix(const linalg::Matrix& m, idx left_dim) {
  QKMPS_CHECK(m.rows() == left_dim * 2);
  left = left_dim;
  right = m.cols();
  a.assign(m.data(), m.data() + m.size());
}

void SiteTensor::assign_right_matrix(const linalg::Matrix& m, idx right_dim) {
  QKMPS_CHECK(m.cols() == 2 * right_dim);
  left = m.rows();
  right = right_dim;
  a.assign(m.data(), m.data() + m.size());
}

Mps::Mps(idx num_sites) { reset(num_sites); }

void Mps::reset(idx num_sites) {
  QKMPS_CHECK(num_sites >= 1);
  sites_.resize(static_cast<std::size_t>(num_sites));
  for (auto& s : sites_) {
    s.left = 1;
    s.right = 1;
    s.a.assign(2, cplx(0.0));
    s.at(0, 0, 0) = 1.0;
  }
  center_ = 0;
}

Mps Mps::plus_state(idx num_sites) {
  Mps psi(num_sites);
  const double h = 1.0 / std::sqrt(2.0);
  for (idx i = 0; i < num_sites; ++i) {
    psi.site(i).at(0, 0, 0) = h;
    psi.site(i).at(0, 1, 0) = h;
  }
  return psi;
}

Mps Mps::product_state(const std::vector<std::array<cplx, 2>>& amps) {
  QKMPS_CHECK(!amps.empty());
  Mps psi(static_cast<idx>(amps.size()));
  for (idx i = 0; i < psi.num_sites(); ++i) {
    psi.site(i).at(0, 0, 0) = amps[static_cast<std::size_t>(i)][0];
    psi.site(i).at(0, 1, 0) = amps[static_cast<std::size_t>(i)][1];
  }
  return psi;
}

idx Mps::max_bond() const {
  idx chi = 1;
  for (const auto& s : sites_) chi = std::max(chi, s.right);
  return chi;
}

std::vector<idx> Mps::bonds() const {
  std::vector<idx> out;
  for (idx i = 0; i + 1 < num_sites(); ++i) out.push_back(bond(i));
  return out;
}

std::size_t Mps::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& s : sites_) total += s.bytes();
  return total;
}

double Mps::norm(linalg::ExecPolicy policy) const {
  const cplx overlap = inner_product(*this, *this, policy);
  return std::sqrt(std::abs(overlap.real()));
}

void Mps::normalize(linalg::ExecPolicy policy) {
  const double n = norm(policy);
  QKMPS_CHECK_MSG(n > 0.0, "cannot normalize the zero state");
  // Scale the center site only, keeping canonical sites orthonormal.
  auto& s = sites_[static_cast<std::size_t>(center_)];
  const cplx scale = 1.0 / n;
  for (auto& v : s.a) v *= scale;
}

std::vector<cplx> Mps::to_statevector() const {
  const idx m = num_sites();
  QKMPS_CHECK_MSG(m <= 22, "to_statevector limited to 22 sites");
  // Left-fold: amp block of shape (2^k, chi_k) after absorbing k sites.
  std::vector<cplx> block(sites_[0].a.begin(), sites_[0].a.end());
  idx rows = 2, chi = sites_[0].right;
  for (idx i = 1; i < m; ++i) {
    const SiteTensor& s = sites_[static_cast<std::size_t>(i)];
    QKMPS_CHECK(s.left == chi);
    std::vector<cplx> next(static_cast<std::size_t>(rows * 2 * s.right), cplx(0.0));
    for (idx rblk = 0; rblk < rows; ++rblk)
      for (idx l = 0; l < chi; ++l) {
        const cplx b = block[static_cast<std::size_t>(rblk * chi + l)];
        if (b == cplx(0.0)) continue;
        for (idx ph = 0; ph < 2; ++ph)
          for (idx r = 0; r < s.right; ++r)
            next[static_cast<std::size_t>((rblk * 2 + ph) * s.right + r)] +=
                b * s.at(l, ph, r);
      }
    block = std::move(next);
    rows *= 2;
    chi = s.right;
  }
  QKMPS_CHECK(chi == 1);
  return block;
}

}  // namespace qkmps::mps
