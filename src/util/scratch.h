// Pooled scratch buffers for executor workers.
//
// The walk engine and the walker-transfer driver used to heap-allocate
// fresh chunk/queue buffers on every call and merge them under a lock. A
// ScratchVector instead leases its backing from a MemoryPool (normally the
// executor's ScratchMemory()): growth is a size-class free-list pop, and
// destruction parks the block back on the free list — after a warm-up pass
// the steady state performs ZERO system allocations for chunk buffers
// (pinned by MemoryPool::Stats in tests). The MemoryPool shards by executor
// worker id, so concurrent leases from different workers never contend and
// recycled blocks stay with the worker (and, when pinned, the NUMA node)
// that last touched them.
//
// Restricted to trivially copyable T on purpose: growth is a memcpy, no
// constructors run, and a buffer handed back to the pool needs no cleanup.
// With a null MemoryPool the vector falls back to operator new — callers on
// the poolless serial path keep working unchanged.

#ifndef BINGO_SRC_UTIL_SCRATCH_H_
#define BINGO_SRC_UTIL_SCRATCH_H_

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/util/memory_pool.h"

namespace bingo::util {

template <typename T>
class ScratchVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "scratch buffers relocate by memcpy");

 public:
  ScratchVector() = default;
  explicit ScratchVector(MemoryPool* backing) : backing_(backing) {}

  ScratchVector(ScratchVector&& other) noexcept
      : backing_(other.backing_),
        data_(other.data_),
        size_(other.size_),
        capacity_(other.capacity_) {
    other.data_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }
  ScratchVector& operator=(ScratchVector&& other) noexcept {
    if (this != &other) {
      Release();
      backing_ = other.backing_;
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }
  ScratchVector(const ScratchVector&) = delete;
  ScratchVector& operator=(const ScratchVector&) = delete;

  ~ScratchVector() { Release(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& back() { return data_[size_ - 1]; }

  void clear() { size_ = 0; }  // keeps the leased capacity

  void reserve(std::size_t n) {
    if (n > capacity_) {
      Grow(n);
    }
  }

  void push_back(const T& value) {
    if (size_ == capacity_) {
      // Copy before growing: Grow hands the old block back to the (shared)
      // pool, so a self-referencing argument (v.push_back(v[0])) would
      // otherwise read through freed memory a concurrent lease may reuse.
      const T copy = value;
      Grow(size_ + 1);
      data_[size_++] = copy;
      return;
    }
    data_[size_++] = value;
  }

  void append(const T* first, const T* last) {
    const std::size_t n = static_cast<std::size_t>(last - first);
    if (n == 0) {
      return;
    }
    if (size_ + n > capacity_) {
      Grow(size_ + n);
    }
    std::memcpy(data_ + size_, first, n * sizeof(T));
    size_ += n;
  }

  // Fills with `n` copies of `value` (the per-chunk visit accumulators).
  void assign(std::size_t n, const T& value) {
    clear();
    reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      data_[i] = value;
    }
    size_ = n;
  }

 private:
  void Grow(std::size_t needed) {
    // Doubling lands on powers of two, which are exact pool size classes,
    // so a regrown buffer of a recycled size is a free-list pop.
    std::size_t new_capacity = capacity_ == 0 ? 16 : capacity_ * 2;
    while (new_capacity < needed) {
      new_capacity *= 2;
    }
    T* fresh = static_cast<T*>(Allocate(new_capacity * sizeof(T)));
    if (size_ > 0) {
      std::memcpy(fresh, data_, size_ * sizeof(T));
    }
    if (data_ != nullptr) {
      Deallocate(data_, capacity_ * sizeof(T));
    }
    data_ = fresh;
    capacity_ = new_capacity;
  }

  void Release() {
    if (data_ != nullptr) {
      Deallocate(data_, capacity_ * sizeof(T));
      data_ = nullptr;
    }
    size_ = 0;
    capacity_ = 0;
  }

  void* Allocate(std::size_t bytes) {
    return backing_ != nullptr ? backing_->Allocate(bytes)
                               : ::operator new(bytes);
  }
  void Deallocate(void* p, std::size_t bytes) {
    if (backing_ != nullptr) {
      backing_->Deallocate(p, bytes);
    } else {
      ::operator delete(p);
    }
  }

  MemoryPool* backing_ = nullptr;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_SCRATCH_H_
