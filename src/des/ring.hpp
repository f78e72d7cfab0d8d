// Ring: a FIFO over a vector used as a circular buffer.
//
// The simulator's queues (mlci and mmpi hardware queues, the
// communication engines' callback-handle FIFOs) see steady push/pop
// traffic.  std::deque allocates and frees a chunk whenever its head or
// tail crosses a chunk boundary, so a steady stream churns the allocator;
// the ring reuses one buffer and allocates only when it grows.  Growth is
// lazy and starts at 2 slots: most queues never hold more than one or two
// items.
//
// Order-preserving removal from the middle (take, erase_if) shifts the
// prefix up one place, so the surviving elements keep their FIFO order.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace des {

template <class T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return buf_.size(); }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[wrap(head_ + i)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[wrap(head_ + i)];
  }
  T& front() { return (*this)[0]; }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }

  T pop_front() {
    assert(size_ > 0);
    T v = std::move(buf_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

  /// Removes element `i`, keeping the order of the rest.
  T take(std::size_t i) {
    T v = std::move((*this)[i]);
    for (std::size_t k = i; k > 0; --k) (*this)[k] = std::move((*this)[k - 1]);
    head_ = wrap(head_ + 1);
    --size_;
    return v;
  }

  /// Removes every element matching `pred`, keeping the order of the rest.
  template <class Pred>
  void erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (pred((*this)[i])) continue;
      if (kept != i) (*this)[kept] = std::move((*this)[i]);
      ++kept;
    }
    for (std::size_t i = kept; i < size_; ++i) (*this)[i] = T{};
    size_ = kept;
  }

 private:
  std::size_t wrap(std::size_t i) const {
    return i >= buf_.size() ? i - buf_.size() : i;
  }

  void grow() {
    std::vector<T> next(buf_.empty() ? 2 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace des
