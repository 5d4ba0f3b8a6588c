/// \file request_queue.hpp
/// \brief Bounded MPMC queue with blocking backpressure and batched
///        draining — the admission layer in front of the tile engine.
///
/// Producers are client threads (`submit` blocks while the queue is full —
/// that IS the backpressure contract; `trySubmit` refuses instead).  The
/// consumer is the dispatcher thread, which drains in *batches*:
/// `popBatch(max)` blocks for the first item, then takes whatever else is
/// already queued, up to \p max.  It never waits for stragglers: the
/// dispatcher admits requests continuously, so waiting would only idle the
/// workers.  A dispatcher that waits elsewhere (the shard event loop, on
/// its wake fd) takes what is queued with `tryPopBatch` instead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace aimsc::service {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Blocks while full (backpressure); returns false iff the queue closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    notFull_.wait(lock,
                  [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    notEmpty_.notify_one();
    return true;
  }

  /// Non-blocking admission; false when full or closed.
  bool tryPush(T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    notEmpty_.notify_one();
    return true;
  }

  /// Blocks for the first item, then takes up to \p max of the items
  /// queued by then.  Empty result means closed-and-drained.
  std::vector<T> popBatch(std::size_t max) {
    std::unique_lock<std::mutex> lock(mutex_);
    notEmpty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    return takeLocked(max);
  }

  /// Takes up to \p max of the items queued now, without waiting.
  std::vector<T> tryPopBatch(std::size_t max) {
    std::lock_guard<std::mutex> lock(mutex_);
    return takeLocked(max);
  }

  /// True once the queue is closed and every item has been taken.
  bool drained() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_ && items_.empty();
  }

  /// Wakes every producer/consumer; push() fails from now on, popBatch()
  /// keeps draining what is already queued.
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    notFull_.notify_all();
    notEmpty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  std::vector<T> takeLocked(std::size_t max) {
    std::vector<T> batch;
    while (!items_.empty() && batch.size() < max) {
      batch.push_back(std::move(items_.front()));
      items_.pop_front();
      notFull_.notify_one();
    }
    return batch;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable notFull_;
  std::condition_variable notEmpty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace aimsc::service
