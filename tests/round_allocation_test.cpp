// Steady-state rounds allocate nothing: once messages and arena have grown
// to their steady size, a round of Frequency Push-Sum (Algorithm 1) writes
// each message into its sender's outbox slot, reuses the round graph's
// topology and accumulates every receive in place. Counted with a
// replacement global operator new that only counts while armed, so this
// file is its own test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/pushsum.hpp"
#include "dynamics/perturbation.hpp"
#include "dynamics/schedules.hpp"
#include "graph/generators.hpp"
#include "runtime/executor.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace anonet {
namespace {

constexpr Vertex kN = 1000;
constexpr int kRounds = 7;

// Allocations during kRounds rounds after `warmup` rounds. Inputs
// alternate along the ring, so after one round every agent knows both
// values and after a few more every message has its steady size.
std::int64_t steady_allocations(DynamicGraphPtr schedule, int threads,
                                int warmup) {
  std::vector<FrequencyPushSumAgent> agents;
  for (Vertex v = 0; v < kN; ++v) agents.emplace_back(v % 2);
  Executor<FrequencyPushSumAgent> exec(std::move(schedule), std::move(agents),
                                       CommModel::kOutdegreeAware, 0x5eedull,
                                       threads);
  exec.run(warmup);
  g_allocations.store(0);
  g_armed.store(true);
  exec.run(kRounds);
  g_armed.store(false);
  return g_allocations.load();
}

class RoundAllocation : public ::testing::TestWithParam<int> {};

TEST_P(RoundAllocation, StaticRingSteadyRoundsAllocateNothing) {
  EXPECT_EQ(steady_allocations(std::make_shared<StaticSchedule>(
                                   bidirectional_ring(kN)),
                               GetParam(), /*warmup=*/3),
            0);
}

TEST_P(RoundAllocation, ChurnEpochSteadyRoundsAllocateNothing) {
  // Epochs of 8 rounds: the warm-up ends on round 9, the first round of
  // the second epoch, so the counted rounds 10..16 share one churn graph.
  const auto churn = std::make_shared<ChurnSchedule>(
      std::make_shared<StaticSchedule>(bidirectional_ring(kN)), 8, 0.25,
      0xc4ull);
  EXPECT_EQ(steady_allocations(churn, GetParam(), /*warmup=*/9), 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, RoundAllocation, ::testing::Values(1, 2));

}  // namespace
}  // namespace anonet
