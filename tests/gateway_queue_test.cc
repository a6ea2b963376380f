#include "gateway/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace leakdet::gateway {
namespace {

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 3);
}

TEST(BoundedQueueTest, TryPushRefusesWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: the drop-newest overload path
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_TRUE(q.TryPush(3));  // room again
}

TEST(BoundedQueueTest, PushBlocksUntilRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.TryPush(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2));  // must wait for the Pop below
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
}

TEST(BoundedQueueTest, CloseDrainsBacklogThenSignalsDone) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.TryPush(1));
  ASSERT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_FALSE(q.TryPush(3));  // producers refused after close
  EXPECT_FALSE(q.Push(3));
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));  // backlog still delivered
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.Pop(&out));  // closed and drained
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(4);
  std::thread consumer([&] {
    int out = 0;
    EXPECT_FALSE(q.Pop(&out));  // wakes on Close with nothing delivered
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
}

TEST(BoundedQueueTest, PopBatchRespectsLimitAndOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.TryPush(i));
  std::vector<int> batch(4, -1);
  EXPECT_EQ(q.PopBatch(batch.data(), 4), 4u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  batch.assign(4, -1);
  EXPECT_EQ(q.PopBatch(batch.data(), 4), 2u);
  EXPECT_EQ(batch, (std::vector<int>{4, 5, -1, -1}));  // rest untouched
}

// The ring's head walks past the end of the slot vector many times over;
// order and contents survive every wrap.
TEST(BoundedQueueTest, WrapsAroundPastCapacity) {
  BoundedQueue<int> q(3);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(q.TryPush(next_in++));
    ASSERT_TRUE(q.TryPush(next_in++));
    int out = -1;
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, next_out++);
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, next_out++);
  }
  EXPECT_EQ(q.size(), 0u);
}

// Growing while the backlog straddles the wrap point must unroll it in
// FIFO order into the larger ring.
TEST(BoundedQueueTest, GrowsWhileBacklogStraddlesTheWrapPoint) {
  BoundedQueue<int> q(64);
  // Grow to 4 slots, then move the head to slot 3 so the backlog wraps.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.TryPush(i));
  int out = -1;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.Pop(&out));
  for (int i = 4; i < 7; ++i) ASSERT_TRUE(q.TryPush(i));  // slots 0..2
  ASSERT_EQ(q.size(), 4u);                                // ring full
  for (int i = 7; i < 20; ++i) ASSERT_TRUE(q.TryPush(i));  // grows twice
  std::vector<int> got;
  while (q.size() > 0) {
    ASSERT_TRUE(q.Pop(&out));
    got.push_back(out);
  }
  std::vector<int> want;
  for (int i = 3; i < 20; ++i) want.push_back(i);
  EXPECT_EQ(got, want);
}

TEST(BoundedQueueTest, CloseDrainsAWrappedBacklogInOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.TryPush(i));
  int out = -1;
  ASSERT_TRUE(q.Pop(&out));
  ASSERT_TRUE(q.Pop(&out));
  ASSERT_TRUE(q.TryPush(4));  // wraps to slot 0
  ASSERT_TRUE(q.TryPush(5));
  q.Close();
  EXPECT_FALSE(q.TryPush(6));
  std::vector<int> batch(4);
  EXPECT_EQ(q.PopBatch(batch.data(), 3), 3u);
  ASSERT_TRUE(q.Pop(&batch[3]));
  EXPECT_EQ(batch, (std::vector<int>{2, 3, 4, 5}));
  EXPECT_FALSE(q.Pop(&out));
  EXPECT_EQ(q.PopBatch(batch.data(), 3), 0u);
}

// Growth stops at capacity: a full ring that has grown refuses the next
// push rather than growing past the bound.
TEST(BoundedQueueTest, TryPushRefusedAtCapacityAfterGrowth) {
  BoundedQueue<int> q(5);  // the ring grows 1 -> 2 -> 4 -> 5
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(i)) << i;
  EXPECT_FALSE(q.TryPush(5));
  bool filled = false;
  EXPECT_FALSE(q.PushWith(false, [&](int& slot) { filled = true; slot = 5; }));
  EXPECT_FALSE(filled);  // a refused push never touches a slot
  EXPECT_EQ(q.size(), 5u);
  std::vector<int> batch(10);
  EXPECT_EQ(q.PopBatch(batch.data(), 10), 5u);
  batch.resize(5);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Strings longer than the small-string buffer, so every item owns heap.
std::string Long(const std::string& tag) {
  return tag + std::string(40, '.');
}

TEST(BoundedQueueTest, CapacityOne) {
  BoundedQueue<std::string> q(1);
  std::string out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.TryPush(Long("item-" + std::to_string(i))));
    EXPECT_FALSE(q.TryPush(Long("refused")));
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, Long("item-" + std::to_string(i)));
  }
  ASSERT_TRUE(q.TryPush(Long("last")));
  q.Close();
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, Long("last"));
  EXPECT_FALSE(q.Pop(&out));
}

// PushWith fills the slot in place, and PopBatch swaps: the slot a consumer
// pops from takes the consumer's old item, so the next push into that slot
// reuses the consumer's buffer instead of allocating one.
TEST(BoundedQueueTest, SwapPopHandsTheConsumersBufferBackToTheSlot) {
  BoundedQueue<std::string> q(1);
  std::string held = Long("consumer");
  const char* held_buffer = held.data();
  ASSERT_TRUE(q.TryPush(Long("first")));
  ASSERT_TRUE(q.Pop(&held));
  EXPECT_EQ(held, Long("first"));
  const std::string second = Long("second");
  const char* slot_buffer = nullptr;
  ASSERT_TRUE(q.PushWith(false, [&](std::string& slot) {
    EXPECT_EQ(slot, Long("consumer"));  // the consumer's old item
    slot_buffer = slot.data();
    slot = second;  // fits: copy-assign reuses the capacity
  }));
  EXPECT_EQ(slot_buffer, held_buffer);
  std::string out;
  ASSERT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, second);
  EXPECT_EQ(out.data(), held_buffer);
}

}  // namespace
}  // namespace leakdet::gateway
