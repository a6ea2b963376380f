// Concurrency stress for gateway::BoundedQueue: producers and consumers race
// on one ring, through growth and wrap-around. Labeled "stress" in ctest; run
// it under -DLEAKDET_SANITIZE=thread to data-race-check the queue.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
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
      std::vector<int> batch;
      while (true) {
        batch.clear();
        if (q.PopBatch(&batch, 16) == 0) return;
        for (int v : batch) {
          sum.fetch_add(static_cast<uint64_t>(v), std::memory_order_relaxed);
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

}  // namespace
}  // namespace leakdet::gateway
