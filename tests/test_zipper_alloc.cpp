/// Pins "allocation-free" for the zipper with a count. This binary links
/// tests/alloc_counter.cpp, whose global operator new bumps a per-thread
/// counter, so a measured window sees exactly its own thread's allocations.

#include <gtest/gtest.h>

#include <cstdint>
#include <new>

#include "circuit/ansatz.hpp"
#include "mps/inner_product.hpp"
#include "mps/simulator.hpp"
#include "test_helpers.hpp"

namespace qkmps::testing {
std::uint64_t thread_allocations();
}  // namespace qkmps::testing

namespace qkmps::mps {
namespace {

using qkmps::testing::thread_allocations;

Mps feature_state(idx m, idx d, std::uint64_t seed) {
  Rng rng(seed);
  const circuit::AnsatzParams p{.num_features = m, .layers = 2, .distance = d,
                                .gamma = 0.8};
  return MpsSimulator()
      .simulate(circuit::feature_map_circuit(
          p, qkmps::testing::random_features(m, rng)))
      .state;
}

TEST(ZipperAlloc, CounterSeesAllocations) {
  const std::uint64_t before = thread_allocations();
  // A direct call, unlike a new-expression, cannot be elided.
  void* p = ::operator new(16);
  EXPECT_EQ(thread_allocations() - before, 1u);
  ::operator delete(p);
}

TEST(ZipperAlloc, WarmOverlapMakesNoAllocation) {
  for (const idx d : {1, 2}) {
    const Mps a = feature_state(40, d, 1), b = feature_state(40, d, 2);
    for (const auto policy :
         {linalg::ExecPolicy::Reference, linalg::ExecPolicy::Accelerated}) {
      const double cold = overlap_squared(a, b, policy);  // warms the buffers
      const std::uint64_t before = thread_allocations();
      const double warm = overlap_squared(a, b, policy);
      EXPECT_EQ(thread_allocations() - before, 0u)
          << "d=" << d << " " << to_string(policy);
      EXPECT_EQ(warm, cold);
    }
  }
}

TEST(ZipperAlloc, WarmNormMakesNoAllocation) {
  const Mps a = feature_state(40, 2, 3);
  const double cold = a.norm();
  const std::uint64_t before = thread_allocations();
  const double warm = a.norm();
  EXPECT_EQ(thread_allocations() - before, 0u);
  EXPECT_EQ(warm, cold);
}

}  // namespace
}  // namespace qkmps::mps
