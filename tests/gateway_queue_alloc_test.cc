// Steady-state allocation count of the serving path: gateway::BoundedQueue
// alone, and a started DetectionGateway fed by lvalue. A shard queue sees
// every packet the gateway serves, so once the ring has grown to the
// backlog's high-water mark and its slots hold buffers as large as the
// packets, moving a packet through it must not touch the heap, on the
// producer's thread or the worker's. Also the trainer's WAL append: logging
// a forwarded packet must not copy it. This binary replaces the global
// operator new/delete with counting versions, which is why it is a test
// binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/packet.h"
#include "core/payload_check.h"
#include "core/signature_server.h"
#include "gateway/bounded_queue.h"
#include "gateway/gateway.h"
#include "gateway/trainer.h"
#include "match/compiled_set.h"
#include "store/store_manager.h"
#include "testing/scripted_file.h"

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

/// The gateway's shard-queue item: a packet and its enqueue time.
struct Item {
  core::HttpPacket packet;
  std::chrono::steady_clock::time_point enqueued;
};

/// A packet whose host, request line, cookie and body all exceed the
/// 15-byte small-string buffer, so each owns heap. Every packet has the
/// same field lengths: a buffer that held one fits any other, so the
/// warm-up below reaches the steady state whatever order buffers rotate in.
/// Every third packet carries the device id LeakSignatures() matches.
core::HttpPacket MakePacket(uint32_t i) {
  char noise[9];
  std::snprintf(noise, sizeof(noise), "%08x", i);
  core::HttpPacket p;
  p.app_id = i;
  p.destination.host = "ads.stream-net.com";
  p.request_line = std::string("GET /live/get?k=") + noise +
                   (i % 3 == 0 ? "&udid=9774d56d682e549c"
                               : "&page=0000000000000000") +
                   " HTTP/1.1";
  p.cookie = std::string("session=") + noise + noise;
  p.body = std::string("{\"event\":\"view\",\"seq\":\"") + noise + "\"}";
  return p;
}

Item MakeItem(uint32_t i) { return Item{MakePacket(i), {}}; }

constexpr size_t kCapacity = 64;
constexpr int kCycles = 100000;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Fills the ring to capacity once and drains it into `batch`, then fills
// the slots the drain handed `batch`'s empty items back to, so the ring
// has grown to capacity and every slot and batch item holds a full-size
// packet's buffers before counting starts.
void WarmUp(BoundedQueue<Item>* q, const std::vector<Item>& items,
            std::vector<Item>* batch) {
  for (size_t i = 0; i < kCapacity; ++i) {
    ASSERT_TRUE(q->Push(items[i % items.size()]));
  }
  size_t popped = 0;
  while (popped < kCapacity) {
    popped += q->PopBatch(batch->data(), batch->size());
  }
  for (size_t i = 0; i < batch->size(); ++i) {
    ASSERT_TRUE(q->Push(items[i % items.size()]));
  }
  for (size_t i = 0; i < batch->size(); ++i) {
    ASSERT_TRUE(q->Pop(&(*batch)[i]));
  }
}

std::vector<Item> MakeItems() {
  std::vector<Item> items;
  for (uint32_t i = 0; i < 16; ++i) items.push_back(MakeItem(i));
  return items;
}

TEST(BoundedQueueAllocTest, CountingAllocatorSeesAllocations) {
  const uint64_t before = Allocations();
  auto* v = new std::vector<int>(100);
  delete v;
  EXPECT_GE(Allocations() - before, 2u);
}

TEST(BoundedQueueAllocTest, PushPopBatchAllocatesNothingInSteadyState) {
  ASSERT_EQ(sizeof(Item), 152u) << "update the item to the gateway's shape";
  const std::vector<Item> items = MakeItems();
  BoundedQueue<Item> q(kCapacity);
  std::vector<Item> batch(kCapacity);
  WarmUp(&q, items, &batch);
  // A varying push count per cycle keeps the head moving round the ring,
  // so pushes and pops both cross the wrap point.
  bool ok = true;
  uint64_t popped = 0;
  const uint64_t before = Allocations();
  for (int c = 0; c < kCycles; ++c) {
    const int pushes = 1 + c % 7;
    for (int i = 0; i < pushes; ++i) {
      ok &= q.Push(items[static_cast<size_t>(c + i) % items.size()]);
    }
    popped += q.PopBatch(batch.data(), batch.size());
  }
  const uint64_t allocations = Allocations() - before;
  EXPECT_TRUE(ok);
  EXPECT_GT(popped, static_cast<uint64_t>(kCycles));
  EXPECT_EQ(allocations, 0u);
}

TEST(BoundedQueueAllocTest, TryPushPopAllocatesNothingInSteadyState) {
  const std::vector<Item> items = MakeItems();
  BoundedQueue<Item> q(kCapacity);
  std::vector<Item> batch(kCapacity);
  WarmUp(&q, items, &batch);
  Item& out = batch[0];
  bool ok = true;
  const uint64_t before = Allocations();
  for (int c = 0; c < kCycles; ++c) {
    ok &= q.TryPush(items[static_cast<size_t>(c) % items.size()]);
    ok &= q.TryPush(items[static_cast<size_t>(c + 1) % items.size()]);
    ok &= q.Pop(&out);
    ok &= q.Pop(&out);
  }
  const uint64_t allocations = Allocations() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);
}

match::SignatureSet LeakSignatures() {
  match::ConjunctionSignature sig;
  sig.id = "sig-0";
  sig.tokens = {"udid=9774d56d682e549c"};
  sig.host_scope = "stream-net.com";
  return match::SignatureSet({sig});
}

void WaitForProcessed(const DetectionGateway& gateway, uint64_t want) {
  while (gateway.processed() < want) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// The whole serving path past warm-up: Submit copies a caller's lvalue
// packet into its shard's ring slot, the worker swaps it out, builds content
// and domain, matches it on the DFA, and hands the slot its old buffers
// back. None of that may allocate, on either thread.
TEST(GatewayAllocTest, SubmitByLvalueAllocatesNothingInSteadyState) {
  GatewayOptions options;
  options.num_shards = 2;
  options.queue_capacity = 128;
  options.pop_batch = 16;
  DetectionGateway gateway(options);
  ASSERT_TRUE(gateway.Publish(
      std::make_shared<const match::CompiledSignatureSet>(LeakSignatures(),
                                                          1)));
  gateway.set_sink([](const core::HttpPacket&, const Verdict&) {});

  // One device per shard, so the warm-up can fill each ring exactly.
  std::vector<uint64_t> device_of_shard(options.num_shards, 0);
  for (size_t shard = 0; shard < options.num_shards; ++shard) {
    uint64_t id = 0;
    while (gateway.shard_of(id) != shard) ++id;
    device_of_shard[shard] = id;
  }
  std::vector<core::HttpPacket> packets;
  // A multiple of 3, so packet i % 48 leaks exactly when i does.
  for (uint32_t i = 0; i < 48; ++i) packets.push_back(MakePacket(i));

  // Warm-up: fill every ring to capacity before the workers start (so no
  // ring grows later), then pass enough packets to refill the slots the
  // workers' first swaps emptied.
  uint64_t submitted = 0;
  for (uint64_t device : device_of_shard) {
    for (size_t i = 0; i < options.queue_capacity; ++i) {
      ASSERT_TRUE(gateway.Submit(device, packets[i % packets.size()]));
      ++submitted;
    }
  }
  ASSERT_TRUE(gateway.Start().ok());
  for (size_t i = 0; i < 4 * options.queue_capacity; ++i) {
    for (uint64_t device : device_of_shard) {
      ASSERT_TRUE(gateway.Submit(device, packets[i % packets.size()]));
      ++submitted;
    }
  }
  WaitForProcessed(gateway, submitted);
  const uint64_t matched_before = gateway.matched();

  constexpr uint64_t kPackets = 100000;
  bool ok = true;
  const uint64_t before = Allocations();
  for (uint64_t i = 0; i < kPackets; ++i) {
    ok &= gateway.Submit(device_of_shard[i % device_of_shard.size()],
                         packets[i % packets.size()]);
  }
  WaitForProcessed(gateway, submitted + kPackets);
  const uint64_t allocations = Allocations() - before;
  gateway.Stop();

  EXPECT_TRUE(ok);
  // Every third packet leaks: matching really ran on every packet.
  EXPECT_EQ(gateway.matched() - matched_before, (kPackets + 2) / 3);
  EXPECT_EQ(allocations, 0u) << "allocations per packet: "
                             << static_cast<double>(allocations) / kPackets;
}

/// Allocations per item of a running trainer's drain loop past warm-up,
/// with `store` (may be null) attached. Nothing is sensitive to its oracle,
/// so every item lands in a capped normal pool and no retrain runs; batches
/// never exceed the mailbox, so nothing is shed.
double TrainerAllocationsPerItem(store::StoreManager* store) {
  core::PayloadCheck oracle(std::vector<core::DeviceTokens>{});
  core::SignatureServer::Options server_options;
  server_options.max_normal_pool = 128;
  core::SignatureServer server(&oracle, server_options);
  GatewayOptions gateway_options;
  gateway_options.num_shards = 1;
  DetectionGateway gateway(gateway_options);
  TrainerOptions trainer_options;
  trainer_options.queue_capacity = 64;
  trainer_options.store = store;
  TrainerLoop trainer(&server, &gateway, trainer_options);
  EXPECT_TRUE(trainer.Start().ok());

  std::vector<core::HttpPacket> packets;
  for (uint32_t i = 0; i < 48; ++i) packets.push_back(MakePacket(i));
  const Verdict verdict;
  uint64_t offered = 0;
  auto run_batches = [&](int batches) {
    for (int b = 0; b < batches; ++b) {
      for (size_t i = 0; i < trainer_options.queue_capacity; ++i) {
        EXPECT_TRUE(trainer.Offer(packets[offered % packets.size()], verdict));
        ++offered;
      }
      while (trainer.items_processed() < offered) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  };
  // Warm-up: every mailbox slot and the pool's vector reach full size.
  run_batches(16);
  constexpr int kBatches = 200;
  const uint64_t before = Allocations();
  run_batches(kBatches);
  const uint64_t allocations = Allocations() - before;
  trainer.Stop();
  EXPECT_EQ(trainer.training_drops(), 0u);
  return static_cast<double>(allocations) /
         (kBatches * trainer_options.queue_capacity);
}

// Logging a forwarded packet to the WAL frames it straight from the
// trainer's buffers: attaching a store adds well under one allocation per
// item (copying the packet into a fresh record cost four, one per field).
// Without a store an item costs at most four: the payload check scans the
// packet's fields in place instead of joining them into a fresh string.
TEST(TrainerAllocTest, WalAppendDoesNotCopyThePacket) {
  const double without_store = TrainerAllocationsPerItem(nullptr);
  EXPECT_LE(without_store, 4.0) << "per item without a store";
  leakdet::testing::ScriptedDir dir;
  auto store = store::StoreManager::Open(&dir, "data", store::StoreOptions{});
  ASSERT_TRUE(store.ok()) << store.status().message();
  const double with_store = TrainerAllocationsPerItem(store->get());
  EXPECT_LT(with_store - without_store, 1.0)
      << "per item: " << without_store << " without a store, " << with_store
      << " with one";
}

}  // namespace
}  // namespace leakdet::gateway
