// Steady-state allocation count of gateway::BoundedQueue. A shard queue sees
// every packet the gateway serves, so once the ring has grown to the
// backlog's high-water mark, moving an item through it must not touch the
// heap. This binary replaces the global operator new/delete with counting
// versions, which is why it is a test binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/packet.h"
#include "gateway/bounded_queue.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
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

namespace leakdet::gateway {
namespace {

/// The gateway's shard-queue item: a packet and its enqueue time. Every
/// string here fits the small-string buffer, so the item itself owns no heap
/// and any allocation counted below is the queue's own.
struct Item {
  core::HttpPacket packet;
  std::chrono::steady_clock::time_point enqueued;
};

Item MakeItem(uint32_t i) {
  Item item;
  item.packet.app_id = i;
  item.packet.destination.host = "a.b.com";
  item.packet.request_line = "GET /x";
  return item;
}

constexpr size_t kCapacity = 64;
constexpr int kCycles = 100000;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Fills the ring to capacity once and drains it, so the slot vector has
// reached its high-water mark before counting starts.
void WarmUp(BoundedQueue<Item>* q) {
  for (size_t i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(q->Push(MakeItem(static_cast<uint32_t>(i))));
  }
  Item out;
  for (size_t i = 0; i < kCapacity; ++i) ASSERT_TRUE(q->Pop(&out));
}

TEST(BoundedQueueAllocTest, CountingAllocatorSeesAllocations) {
  const uint64_t before = Allocations();
  auto* v = new std::vector<int>(100);
  delete v;
  EXPECT_GE(Allocations() - before, 2u);
}

TEST(BoundedQueueAllocTest, PushPopBatchAllocatesNothingInSteadyState) {
  ASSERT_EQ(sizeof(Item), 152u) << "update the item to the gateway's shape";
  BoundedQueue<Item> q(kCapacity);
  WarmUp(&q);
  std::vector<Item> batch;
  batch.reserve(kCapacity);
  // A varying push count per cycle keeps the head moving round the ring,
  // so pushes and pops both cross the wrap point.
  bool ok = true;
  uint64_t popped = 0;
  const uint64_t before = Allocations();
  for (int c = 0; c < kCycles; ++c) {
    const int pushes = 1 + c % 7;
    for (int i = 0; i < pushes; ++i) {
      ok &= q.Push(MakeItem(static_cast<uint32_t>(c)));
    }
    batch.clear();
    popped += q.PopBatch(&batch, kCapacity);
  }
  const uint64_t allocations = Allocations() - before;
  EXPECT_TRUE(ok);
  EXPECT_GT(popped, static_cast<uint64_t>(kCycles));
  EXPECT_EQ(allocations, 0u);
}

TEST(BoundedQueueAllocTest, TryPushPopAllocatesNothingInSteadyState) {
  BoundedQueue<Item> q(kCapacity);
  WarmUp(&q);
  Item out;
  bool ok = true;
  const uint64_t before = Allocations();
  for (int c = 0; c < kCycles; ++c) {
    ok &= q.TryPush(MakeItem(static_cast<uint32_t>(c)));
    ok &= q.TryPush(MakeItem(static_cast<uint32_t>(c)));
    ok &= q.Pop(&out);
    ok &= q.Pop(&out);
  }
  const uint64_t allocations = Allocations() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace leakdet::gateway
