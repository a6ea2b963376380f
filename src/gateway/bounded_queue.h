#ifndef LEAKDET_GATEWAY_BOUNDED_QUEUE_H_
#define LEAKDET_GATEWAY_BOUNDED_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace leakdet::gateway {

/// A bounded multi-producer multi-consumer queue, the per-shard mailbox of
/// the detection gateway. Capacity is a hard bound: producers either wait
/// (backpressure) or fail fast (load shedding) — the queue never grows past
/// it, which is what keeps gateway memory flat under overload.
///
/// Close() transitions the queue to draining: producers are refused, and
/// consumers keep receiving until the backlog is empty, so no accepted item
/// is ever lost on shutdown.
///
/// Storage is a ring of slots: a vector that grows geometrically on demand
/// up to `capacity` and never shrinks. Items never move in or out by value.
/// A producer fills the slot it takes in place (PushWith), and a consumer
/// swaps slots with items it owns (PopBatch), so each slot gets back the
/// buffers of an item the consumer has finished with. Once the ring has
/// grown to the backlog's high-water mark and every buffer has held the
/// largest item seen, pushing and popping allocate nothing: a fill that
/// copy-assigns reuses the slot's capacity. T must be default-constructible
/// and swappable.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Takes the tail slot and calls `fill(T& slot)` on it under the queue
  /// lock; the slot still holds whatever item last left it, so `fill` must
  /// overwrite every field. When full, waits for room if `wait_for_room`,
  /// else returns false at once (the caller accounts the drop). Returns
  /// false, without calling `fill`, once closed.
  template <typename Fill>
  bool PushWith(bool wait_for_room, Fill&& fill) {
    std::unique_lock<std::mutex> lock(mu_);
    if (wait_for_room) {
      not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
    }
    if (closed_ || size_ >= capacity_) return false;
    if (size_ == slots_.size()) Grow();
    size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    fill(slots_[tail]);
    ++size_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// PushWith copy-assigning `item`, waiting while full.
  bool Push(const T& item) {
    return PushWith(true, [&item](T& slot) { slot = item; });
  }
  /// PushWith copy-assigning `item`, failing fast while full.
  bool TryPush(const T& item) {
    return PushWith(false, [&item](T& slot) { slot = item; });
  }

  /// Swaps up to `max_items` queued items, oldest first, into out[0..n),
  /// blocking for the first one; the ring slots take out's old contents.
  /// Returns n; 0 means closed-and-drained. Batching amortizes lock traffic
  /// for high-throughput consumers.
  size_t PopBatch(T* out, size_t max_items) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    const size_t n = std::min(max_items, size_);
    for (size_t i = 0; i < n; ++i) {
      using std::swap;
      swap(out[i], slots_[head_]);
      if (++head_ == slots_.size()) head_ = 0;
    }
    size_ -= n;
    lock.unlock();
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// PopBatch of one item.
  bool Pop(T* out) { return PopBatch(out, 1) == 1; }

  /// Refuses further pushes and wakes every waiter. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  size_t capacity() const { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  /// Doubles the ring (capped at capacity_), unrolling the backlog so it
  /// starts at slot 0 of the new vector.
  void Grow() {
    std::vector<T> next(std::min(capacity_, std::max<size_t>(
                                                1, 2 * slots_.size())));
    for (size_t i = 0; i < size_; ++i) {
      size_t from = head_ + i;
      if (from >= slots_.size()) from -= slots_.size();
      next[i] = std::move(slots_[from]);
    }
    slots_.swap(next);
    head_ = 0;
  }

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> slots_;
  size_t head_ = 0;  ///< slot of the oldest item
  size_t size_ = 0;  ///< items in the ring, at most capacity_
  const size_t capacity_;
  bool closed_ = false;
};

}  // namespace leakdet::gateway

#endif  // LEAKDET_GATEWAY_BOUNDED_QUEUE_H_
