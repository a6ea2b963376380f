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
/// up to `capacity` and never shrinks. Items are moved into a slot on push
/// and move-constructed out of it on pop, so a vacated slot owns no heap
/// and, once the ring has grown to the backlog's high-water mark, pushing
/// and popping allocate nothing. T must be default-constructible.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}
  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false (item not enqueued) once closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
    if (closed_) return false;
    PushLocked(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when full or closed (the caller
  /// accounts the drop).
  bool TryPush(T item) { return TryEmplace(std::move(item)); }

  /// TryPush of `T{args...}`, built only once the queue has room: a push
  /// that is refused constructs (and so copies) nothing.
  template <typename... Args>
  bool TryEmplace(Args&&... args) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ >= capacity_) return false;
      PushLocked(T{std::forward<Args>(args)...});
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns false only when the queue is closed *and*
  /// fully drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    if (size_ == 0) return false;
    // Move-construct, not move-assign: assignment may hand *out's old
    // buffers back to the slot.
    T item(TakeLocked());
    lock.unlock();
    not_full_.notify_one();
    *out = std::move(item);
    return true;
  }

  /// Pops up to `max_items` at once into `out` (appended), blocking for the
  /// first one. Returns the number popped; 0 means closed-and-drained.
  /// Batching amortizes lock traffic for high-throughput consumers.
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    const size_t n = std::min(max_items, size_);
    for (size_t i = 0; i < n; ++i) out->push_back(TakeLocked());
    lock.unlock();
    if (n > 0) not_full_.notify_all();
    return n;
  }

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
  /// Caller holds mu_ and has checked size_ < capacity_.
  void PushLocked(T&& item) {
    if (size_ == slots_.size()) Grow();
    size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(item);
    ++size_;
  }

  /// Caller holds mu_, has checked size_ > 0, and move-constructs from the
  /// result before releasing mu_ (which empties the slot).
  T&& TakeLocked() {
    T& front = slots_[head_];
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
    return std::move(front);
  }

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
