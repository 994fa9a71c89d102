// Annotated synchronization primitives: the repo's ONLY sanctioned mutex
// layer (tools/lint/bingo_lint.py rejects raw std::mutex/std::shared_mutex
// anywhere else).
//
// The serving stack's locking protocol — versioned snapshot epochs, per-shard
// writer locks, drain threads, a shared-mutex-guarded walk corpus — used to
// live in comments and in whichever interleavings the TSan tests happened
// to execute. These wrappers carry Clang Thread Safety Analysis attributes
// ("C/C++ Thread Safety Analysis", Hutchins et al.; the abseil Mutex
// idiom), so the protocol is a compile-time contract: a Clang build with
// -Wthread-safety -Werror rejects any access to a BINGO_GUARDED_BY member
// without its lock and any call to a BINGO_REQUIRES method while unlocked.
// Under GCC (and any non-Clang compiler) every attribute compiles out and
// the wrappers are zero-cost forwarding shims over the std primitives.
//
// Usage rules the analysis enforces (see tests/static_analysis/):
//   * Annotate every member a mutex protects: `int x BINGO_GUARDED_BY(mu_);`
//   * Private *Locked() helpers declare their contract:
//     `void DrainLocked() BINGO_REQUIRES(mu_);`
//   * Scope locks with MutexLock / WriterLock / ReaderLock; for condition
//     waits, write explicit `while (!pred) cv_.Wait(mu_);` loops — a
//     predicate lambda would be analyzed as an unannotated function and
//     lose the capability context.
//   * Public entry points that take a lock internally may declare
//     BINGO_EXCLUDES(mu_) so re-entry from a callback deadlock is caught
//     at compile time.

#ifndef BINGO_SRC_UTIL_SYNC_H_
#define BINGO_SRC_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// --------------------------------------------- thread-safety attributes --
// Clang-only; every other compiler sees empty macros. (GCC would accept
// unknown __attribute__ spellings with -Wattributes noise; gating on
// __clang__ keeps non-Clang builds warning-clean.)
#if defined(__clang__) && !defined(SWIG)
#define BINGO_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define BINGO_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

// A type that models a lockable resource.
#define BINGO_CAPABILITY(x) BINGO_THREAD_ANNOTATION__(capability(x))

// A RAII type whose lifetime holds a capability.
#define BINGO_SCOPED_CAPABILITY BINGO_THREAD_ANNOTATION__(scoped_lockable)

// Data members protected by a mutex (the pointee, for PT_).
#define BINGO_GUARDED_BY(x) BINGO_THREAD_ANNOTATION__(guarded_by(x))
#define BINGO_PT_GUARDED_BY(x) BINGO_THREAD_ANNOTATION__(pt_guarded_by(x))

// Lock-ordering declarations (checked under -Wthread-safety-beta).
#define BINGO_ACQUIRED_BEFORE(...) \
  BINGO_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define BINGO_ACQUIRED_AFTER(...) \
  BINGO_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

// Function contracts: must hold the capability on entry (and still on exit).
#define BINGO_REQUIRES(...) \
  BINGO_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define BINGO_REQUIRES_SHARED(...) \
  BINGO_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

// Function acquires/releases the capability.
#define BINGO_ACQUIRE(...) \
  BINGO_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define BINGO_ACQUIRE_SHARED(...) \
  BINGO_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define BINGO_RELEASE(...) \
  BINGO_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define BINGO_RELEASE_SHARED(...) \
  BINGO_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define BINGO_RELEASE_GENERIC(...) \
  BINGO_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

// Function attempts the acquisition; first argument is the success value.
#define BINGO_TRY_ACQUIRE(...) \
  BINGO_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define BINGO_TRY_ACQUIRE_SHARED(...) \
  BINGO_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

// Function must NOT hold the capability (deadlock-by-re-entry guard).
#define BINGO_EXCLUDES(...) \
  BINGO_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Runtime assertion that the capability is held (teaches the analysis).
#define BINGO_ASSERT_CAPABILITY(x) \
  BINGO_THREAD_ANNOTATION__(assert_capability(x))
#define BINGO_ASSERT_SHARED_CAPABILITY(x) \
  BINGO_THREAD_ANNOTATION__(assert_shared_capability(x))

// Function returns a reference to the named capability.
#define BINGO_RETURN_CAPABILITY(x) \
  BINGO_THREAD_ANNOTATION__(lock_returned(x))

// Escape hatch: disables the analysis inside one function. Every use MUST
// carry a justification comment; bingo_lint's fixtures keep the discipline
// honest, and code review keeps the count near zero.
#define BINGO_NO_THREAD_SAFETY_ANALYSIS \
  BINGO_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace bingo::util {

class CondVar;

// Annotated exclusive mutex. Same cost and semantics as std::mutex; the
// annotations are the only addition.
class BINGO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() BINGO_ACQUIRE() { mu_.lock(); }
  void Unlock() BINGO_RELEASE() { mu_.unlock(); }
  bool TryLock() BINGO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Tells the analysis (not the runtime) that the lock is held — for code
  // reached only from REQUIRES contexts the analysis cannot see through.
  void AssertHeld() const BINGO_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Annotated shared (reader/writer) mutex over std::shared_mutex.
class BINGO_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() BINGO_ACQUIRE() { mu_.lock(); }
  void Unlock() BINGO_RELEASE() { mu_.unlock(); }
  bool TryLock() BINGO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  void LockShared() BINGO_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() BINGO_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool TryLockShared() BINGO_TRY_ACQUIRE_SHARED(true) {
    return mu_.try_lock_shared();
  }

  void AssertHeld() const BINGO_ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const BINGO_ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

// Scoped exclusive lock on a Mutex. Relockable: Unlock()/Lock() let a
// long-running section (the query dispatcher) drop the lock around work
// that must not hold it, with the analysis tracking the state across the
// gap. Destruction releases iff currently held.
class BINGO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BINGO_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.Lock();
  }
  ~MutexLock() BINGO_RELEASE() {
    if (held_) {
      mu_.Unlock();
    }
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() BINGO_RELEASE() {
    mu_.Unlock();
    held_ = false;
  }
  void Lock() BINGO_ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

// Scoped exclusive lock on a SharedMutex (the writer side).
class BINGO_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) BINGO_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterLock() BINGO_RELEASE() { mu_.Unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Scoped shared lock on a SharedMutex (the reader side).
class BINGO_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) BINGO_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() BINGO_RELEASE() { mu_.UnlockShared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to the annotated Mutex. No predicate overloads
// on purpose: a predicate lambda is analyzed as an unannotated function and
// would warn on every guarded read inside it — callers write the explicit
// `while (!pred) cv.Wait(mu);` loop, which the analysis checks end to end.
//
// Implementation detail: std::condition_variable needs a unique_lock, so
// each wait adopts the already-held std::mutex and releases the adoption
// before returning — no extra locking, identical wakeup semantics.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) BINGO_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& rel_time)
      BINGO_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, rel_time);
    lock.release();
    return status;
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      BINGO_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace bingo::util

#endif  // BINGO_SRC_UTIL_SYNC_H_
