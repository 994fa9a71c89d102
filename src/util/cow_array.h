// CowArray: a paged array whose versions share every page they did not
// change — the per-vertex tables of a copy-on-write store.
//
// Element i lives in page i >> kShift, so a read costs one extra load, of
// the page directory, which is small enough to stay cache-resident (one
// pointer per 2^kShift elements).
//
// A view (View()) copies only the directory: it reads the same pages and
// owns none of them. The array it was taken from owns every page it
// reaches and, before it writes an element, makes the element's page its
// own with ClonePage. The owner records which version created each page;
// a page created by an earlier version than the one being built may be
// read by a view, so ClonePage copies it and returns the original, which
// the caller retires (util/reclaimer.h) until no view can read it.
//
// Elements are trivially copyable: a page copy duplicates handles, not what
// they point to. Whoever owns the pointees frees them.
//
// Pages come from the MemoryPool the array was built on (a store's own
// pool), so a page freed on any thread is the next ClonePage's page.

#ifndef BINGO_SRC_UTIL_COW_ARRAY_H_
#define BINGO_SRC_UTIL_COW_ARRAY_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/memory_pool.h"

namespace bingo::util {

template <typename T, int kShift>
class CowArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  static constexpr std::size_t kPageSize = std::size_t{1} << kShift;

  struct Page {
    T items[kPageSize];
  };

  // An empty array with no pool: a placeholder to move or View() into.
  CowArray() = default;
  // `n` value-initialized elements in pages from `pool`, which must
  // outlive the array and every page it retires.
  CowArray(MemoryPool& pool, std::size_t n) : pool_(&pool) { Resize(n); }
  ~CowArray() { Clear(); }

  CowArray(CowArray&& other) noexcept { Take(other); }
  CowArray& operator=(CowArray&& other) noexcept {
    if (this != &other) {
      Clear();
      Take(other);
    }
    return *this;
  }
  CowArray(const CowArray&) = delete;
  CowArray& operator=(const CowArray&) = delete;

  // A read-only array over the same pages as this one as it stands. It owns
  // none of them: a page it reads must outlive it, including one that a
  // later ClonePage supersedes (the caller retires those).
  CowArray View() const {
    CowArray view;
    view.pool_ = pool_;
    view.pages_ = pages_;
    view.size_ = size_;
    view.owner_ = false;
    return view;
  }

  std::size_t size() const { return size_; }
  bool Owner() const { return owner_; }

  const T& operator[](std::size_t i) const {
    return pages_[i >> kShift]->items[i & kMask];
  }
  // Writable element; its page must be private (fresh from Resize, or made
  // so by ClonePage for the version being built).
  T& operator[](std::size_t i) {
    return pages_[i >> kShift]->items[i & kMask];
  }

  // Grows to `n` elements. New elements are value-initialized; new pages
  // count as made by version 0, so a writer building a later version
  // copies them before its first write (cheap, and growth is rare).
  void Resize(std::size_t n) {
    while (pages_.size() * kPageSize < n) {
      pages_.push_back(new (pool_->Allocate(sizeof(Page))) Page{});
      born_.push_back(0);
    }
    size_ = n;
  }

  // Makes the page holding element i private to `version`: a page stamped
  // with an earlier version is copied, and the original is returned for
  // the caller to retire. Returns nullptr when the page already is
  // private. Not thread-safe: writers clone every page a parallel phase
  // will touch before it starts.
  Page* ClonePage(std::size_t i, uint64_t version) {
    const std::size_t p = i >> kShift;
    if (born_[p] == version) {
      return nullptr;
    }
    Page* old = pages_[p];
    pages_[p] = new (pool_->Allocate(sizeof(Page))) Page(*old);
    born_[p] = version;
    return old;
  }

  // Frees a page ClonePage returned, once no view can read it.
  void FreePage(Page* page) const { pool_->Deallocate(page, sizeof(Page)); }

  // Bytes the pages take from the pool, at its size class (the directory,
  // one pointer and one stamp per page, is not counted).
  std::size_t CapacityBytes() const {
    return pages_.size() * MemoryPool::ClassSize(sizeof(Page));
  }

 private:
  static constexpr std::size_t kMask = kPageSize - 1;

  void Clear() {
    if (owner_) {
      for (Page* page : pages_) {
        FreePage(page);
      }
    }
    pages_.clear();
    born_.clear();
    size_ = 0;
    owner_ = true;
  }
  void Take(CowArray& other) {
    pool_ = other.pool_;
    pages_ = std::move(other.pages_);
    born_ = std::move(other.born_);
    size_ = other.size_;
    owner_ = other.owner_;
    other.pages_.clear();
    other.born_.clear();
    other.size_ = 0;
  }

  static_assert(std::is_trivially_destructible_v<Page>);

  MemoryPool* pool_ = nullptr;
  std::vector<Page*> pages_;  // the directory: one pointer per page
  std::vector<uint64_t> born_;  // owner only: the version that made each page
  std::size_t size_ = 0;
  bool owner_ = true;
};

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_COW_ARRAY_H_
