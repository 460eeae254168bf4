/// Kernel-level microbenchmarks (google-benchmark): the primitive ablations
/// underlying the Fig. 5 crossover. Times the dense kernels (GEMM policies,
/// SVD drivers) and the two MPS primitives (gate application, zipper inner
/// product) as functions of the bond dimension chi, on both execution
/// policies. Run with --benchmark_filter=... to select a subset.

#include <benchmark/benchmark.h>

#include "circuit/gate.hpp"
#include "linalg/gemm.hpp"
#include "linalg/jacobi_svd.hpp"
#include "linalg/svd.hpp"
#include "mps/canonical.hpp"
#include "mps/gate_application.hpp"
#include "mps/inner_product.hpp"
#include "util/rng.hpp"

namespace {

using namespace qkmps;

linalg::Matrix random_matrix(idx rows, idx cols, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix m(rows, cols);
  for (idx i = 0; i < rows; ++i)
    for (idx j = 0; j < cols; ++j) m(i, j) = rng.normal_cplx();
  return m;
}

/// Random MPS with every bond at chi, brought into canonical form; the
/// standard fixture for chi-parameterized primitive timing.
mps::Mps random_mps(idx sites, idx chi, std::uint64_t seed) {
  Rng rng(seed);
  mps::Mps psi(sites);
  for (idx i = 0; i < sites; ++i) {
    const idx dl = (i == 0) ? 1 : chi;
    const idx dr = (i == sites - 1) ? 1 : chi;
    mps::SiteTensor t(dl, dr);
    for (auto& v : t.a) v = rng.normal_cplx();
    psi.site(i) = t;
  }
  psi.set_center(0);
  // Sweep once to canonicalize and normalize.
  mps::move_center(psi, sites - 1, linalg::ExecPolicy::Reference);
  mps::move_center(psi, 0, linalg::ExecPolicy::Reference);
  psi.normalize();
  return psi;
}

void BM_GemmReference(benchmark::State& state) {
  const idx n = state.range(0);
  const auto a = random_matrix(n, n, 1);
  const auto b = random_matrix(n, n, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(linalg::gemm(a, b, linalg::ExecPolicy::Reference));
  state.SetComplexityN(n);
}
BENCHMARK(BM_GemmReference)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_GemmAccelerated(benchmark::State& state) {
  const idx n = state.range(0);
  const auto a = random_matrix(n, n, 1);
  const auto b = random_matrix(n, n, 2);
  for (auto _ : state)
    benchmark::DoNotOptimize(linalg::gemm(a, b, linalg::ExecPolicy::Accelerated));
  state.SetComplexityN(n);
}
BENCHMARK(BM_GemmAccelerated)->RangeMultiplier(2)->Range(16, 256)->Complexity();

void BM_SvdGolubKahan(benchmark::State& state) {
  const idx n = state.range(0);
  const auto a = random_matrix(n, n, 3);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::svd(a));
}
BENCHMARK(BM_SvdGolubKahan)->RangeMultiplier(2)->Range(8, 128);

void BM_SvdJacobi(benchmark::State& state) {
  const idx n = state.range(0);
  const auto a = random_matrix(n, n, 3);
  for (auto _ : state) benchmark::DoNotOptimize(linalg::jacobi_svd(a));
}
BENCHMARK(BM_SvdJacobi)->RangeMultiplier(2)->Range(8, 64);

template <linalg::ExecPolicy kPolicy>
void BM_InnerProduct(benchmark::State& state) {
  const idx chi = state.range(0);
  const auto a = random_mps(20, chi, 4);
  const auto b = random_mps(20, chi, 5);
  for (auto _ : state)
    benchmark::DoNotOptimize(mps::inner_product(a, b, kPolicy));
  state.counters["chi"] = static_cast<double>(chi);
}
BENCHMARK(BM_InnerProduct<linalg::ExecPolicy::Reference>)
    ->RangeMultiplier(2)
    ->Range(4, 64);
BENCHMARK(BM_InnerProduct<linalg::ExecPolicy::Accelerated>)
    ->RangeMultiplier(2)
    ->Range(4, 64);

template <linalg::ExecPolicy kPolicy>
void BM_TwoQubitGate(benchmark::State& state) {
  const idx chi = state.range(0);
  const auto base = random_mps(8, chi, 6);
  const auto u = circuit::make_rxx(3, 4, 0.8).unitary();
  const mps::TruncationConfig trunc;
  for (auto _ : state) {
    state.PauseTiming();
    mps::Mps psi = base;
    state.ResumeTiming();
    mps::apply_adjacent_two_qubit_gate(psi, u, 3, trunc, kPolicy);
  }
  state.counters["chi"] = static_cast<double>(chi);
}
BENCHMARK(BM_TwoQubitGate<linalg::ExecPolicy::Reference>)
    ->RangeMultiplier(2)
    ->Range(4, 64);
BENCHMARK(BM_TwoQubitGate<linalg::ExecPolicy::Accelerated>)
    ->RangeMultiplier(2)
    ->Range(4, 64);

}  // namespace

BENCHMARK_MAIN();
