// Bounded blocking MPMC queue used for task mailboxes and the generator ->
// ingress path. Close() wakes all waiters; readers drain remaining items
// before observing closure.
#ifndef IMPELLER_SRC_COMMON_QUEUE_H_
#define IMPELLER_SRC_COMMON_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

namespace impeller {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = SIZE_MAX) : capacity_(capacity) {}

  // Blocks while full. Returns false if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) {
      return false;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push; returns false when full or closed.
  bool TryPush(T item) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) {
      return false;
    }
    items_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.notify_one();
    return item;
  }

  // Blocks while empty, then takes every queued item in FIFO order. Returns
  // an empty vector once closed and drained.
  std::vector<T> PopAll() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    std::vector<T> out(std::make_move_iterator(items_.begin()),
                       std::make_move_iterator(items_.end()));
    items_.clear();
    not_full_.notify_all();
    return out;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  size_t capacity_;
  bool closed_ = false;
};

}  // namespace impeller

#endif  // IMPELLER_SRC_COMMON_QUEUE_H_
