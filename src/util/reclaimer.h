// EpochReclaimer: epoch-based reclamation for the versions of a
// copy-on-write store.
//
// A writer builds version r by copying what it changes; the originals are
// then reachable only from views of versions below r. It hands them over
// with Retire(r, ...). A view pins its version for its lifetime. Storage
// retired at r is freed as soon as no view below r is pinned: at Retire
// when there is none, otherwise by the Unpin that releases the last one,
// on whichever thread releases it. The writer never waits for a reader.
// While no view is pinned at all (Views() is 0), nothing can read an older
// version, so the writer need not copy: it changes the storage in place
// and retires nothing. A store's owner that can rule out new views for the
// length of a mutation (walk/service.h drops its own view of an unread
// version under the lock that hands out snapshots) uses this to apply a
// batch without a copy.
// Destroying the reclaimer frees what is left and returns free heap pages
// to the operating system (see the destructor).

#ifndef BINGO_SRC_UTIL_RECLAIMER_H_
#define BINGO_SRC_UTIL_RECLAIMER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "src/util/sync.h"

namespace bingo::util {

class EpochReclaimer {
 public:
  EpochReclaimer() = default;
  ~EpochReclaimer();

  EpochReclaimer(const EpochReclaimer&) = delete;
  EpochReclaimer& operator=(const EpochReclaimer&) = delete;

  // A view of `version` is alive; nothing retired above it is freed until
  // the matching Unpin.
  void Pin(uint64_t version) BINGO_EXCLUDES(mutex_);
  void Unpin(uint64_t version) BINGO_EXCLUDES(mutex_);

  // `free` releases `bytes` of storage that version `version` superseded.
  // Versions retire in non-decreasing order.
  void Retire(uint64_t version, std::size_t bytes, std::function<void()> free)
      BINGO_EXCLUDES(mutex_);

  // Views pinned right now, at every version.
  std::size_t Views() const BINGO_EXCLUDES(mutex_);

  // Frees everything retired, pinned or not (the store is going away).
  void FreeAll() BINGO_EXCLUDES(mutex_);

  // Bytes retired and not yet freed.
  std::size_t RetiredBytes() const {
    return retired_bytes_.load(std::memory_order_relaxed);
  }

  // Every retirement at or below this version has been freed. A view of
  // version v reads nothing freed while FreedThrough() <= v.
  uint64_t FreedThrough() const {
    return freed_through_.load(std::memory_order_acquire);
  }

 private:
  struct Retired {
    uint64_t version;
    std::size_t bytes;
    std::function<void()> free;
  };

  // Moves out every retirement no pinned view can reach.
  std::vector<Retired> TakeFreeableLocked() BINGO_REQUIRES(mutex_);
  void Free(std::vector<Retired>& batch);

  mutable Mutex mutex_;
  // (version, live views), ascending by version.
  std::vector<std::pair<uint64_t, int64_t>> pins_ BINGO_GUARDED_BY(mutex_);
  std::deque<Retired> retired_ BINGO_GUARDED_BY(mutex_);
  std::atomic<std::size_t> retired_bytes_{0};
  std::atomic<uint64_t> freed_through_{0};
};

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_RECLAIMER_H_
