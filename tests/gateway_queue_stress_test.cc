// Concurrency stress for gateway::BoundedQueue: producers and consumers race
// on one ring, through growth and wrap-around. Labeled "stress" in ctest; run
// it under -DLEAKDET_SANITIZE=thread to data-race-check the queue.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gateway/bounded_queue.h"

namespace leakdet::gateway {
namespace {

TEST(BoundedQueueTest, MultiProducerMultiConsumerLosesNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;
  BoundedQueue<int> q(64);
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> received{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch(16);
      while (true) {
        const size_t n = q.PopBatch(batch.data(), batch.size());
        if (n == 0) return;
        for (size_t i = 0; i < n; ++i) {
          sum.fetch_add(static_cast<uint64_t>(batch[i]),
                        std::memory_order_relaxed);
          received.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  constexpr uint64_t kTotal = uint64_t{kProducers} * kPerProducer;
  EXPECT_EQ(received.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

// The swap pop passes heap buffers between threads: a consumer's finished
// string goes back into the ring, and a producer later overwrites it in
// place. Every value must arrive intact, and no buffer may be shared.
TEST(BoundedQueueTest, SwappedHeapBuffersCrossThreadsIntact) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 4000;
  const std::string pad(48, 'x');  // past the small-string buffer
  BoundedQueue<std::string> q(32);
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> corrupt{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<std::string> batch(8);
      while (true) {
        const size_t n = q.PopBatch(batch.data(), batch.size());
        if (n == 0) return;
        for (size_t i = 0; i < n; ++i) {
          const std::string& v = batch[i];
          if (v.size() <= pad.size() ||
              v.compare(v.size() - pad.size(), pad.size(), pad) != 0) {
            corrupt.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          sum.fetch_add(std::stoull(v.substr(0, v.size() - pad.size())),
                        std::memory_order_relaxed);
          received.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        ASSERT_TRUE(q.PushWith(true, [&](std::string& slot) {
          slot.assign(std::to_string(value));
          slot.append(pad);
        }));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  constexpr uint64_t kTotal = uint64_t{kProducers} * kPerProducer;
  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_EQ(received.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

}  // namespace
}  // namespace leakdet::gateway
