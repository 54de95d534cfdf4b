// Clang Thread Safety Analysis: capability annotations + annotated
// synchronization wrappers.
//
// The concurrent surfaces of this codebase (streaming session queue,
// engine session pool, worker pool, node registry) are
// correct because specific data is only ever touched under specific
// locks. TSan can only confirm that on the interleavings a test happens
// to produce; the annotations below turn the same lock discipline into a
// compile-time proof: clang's -Wthread-safety rejects any access to a
// CHRONOS_GUARDED_BY member outside its capability, any call to a
// CHRONOS_REQUIRES function without it, and any lock/unlock imbalance —
// on every path, not just the scheduled ones.
//
// Under non-clang compilers (and clang without the attribute) every macro
// expands to nothing and the wrappers are zero-cost veneers over
// std::mutex / std::condition_variable, so gcc builds are bit-identical
// to the pre-annotation code. The `tidy` CMake preset builds the tree
// with clang and -Wthread-safety -Werror; CI runs it on every push.
//
// Conventions (see README "Static analysis"):
//   * a datum owned by one lock gets CHRONOS_GUARDED_BY(that_lock) at the
//     declaration — the analysis then polices every access;
//   * a function that assumes the caller already holds a lock gets
//     CHRONOS_REQUIRES(lock) — prefer this over re-locking for helpers
//     called from locked regions (the `*_locked()` naming convention);
//   * scoped locking uses chronos::MutexLock (a SCOPED_CAPABILITY), never
//     bare lock()/unlock() pairs, so early returns cannot leak a lock;
//   * condition waits go through chronos::CondVar::wait(mutex, pred),
//     whose predicate runs with the mutex provably held — annotate the
//     predicate lambda with CHRONOS_REQUIRES(mutex) when it reads guarded
//     state.
#pragma once

#include <condition_variable>
#include <mutex>
#include <utility>

#if defined(__clang__) && !defined(SWIG)
#define CHRONOS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CHRONOS_THREAD_ANNOTATION_(x)  // no-op off clang
#endif

/// Marks a type as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define CHRONOS_CAPABILITY(x) CHRONOS_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define CHRONOS_SCOPED_CAPABILITY CHRONOS_THREAD_ANNOTATION_(scoped_lockable)

/// The annotated datum may only be read or written while holding `x`.
#define CHRONOS_GUARDED_BY(x) CHRONOS_THREAD_ANNOTATION_(guarded_by(x))

/// The pointee of the annotated pointer is protected by `x`.
#define CHRONOS_PT_GUARDED_BY(x) CHRONOS_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The function may only be called while holding the listed capabilities
/// (it neither acquires nor releases them).
#define CHRONOS_REQUIRES(...) \
  CHRONOS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Shared (reader) variant of CHRONOS_REQUIRES.
#define CHRONOS_REQUIRES_SHARED(...) \
  CHRONOS_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the listed capabilities and does not release
/// them before returning.
#define CHRONOS_ACQUIRE(...) \
  CHRONOS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities (which must be held on
/// entry).
#define CHRONOS_RELEASE(...) \
  CHRONOS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns `b`.
#define CHRONOS_TRY_ACQUIRE(b, ...) \
  CHRONOS_THREAD_ANNOTATION_(try_acquire_capability(b, __VA_ARGS__))

/// The function must NOT be called while holding the listed capabilities
/// (deadlock prevention: it will acquire them itself).
#define CHRONOS_EXCLUDES(...) \
  CHRONOS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Documents that the returned reference is protected by `x`.
#define CHRONOS_RETURN_CAPABILITY(x) \
  CHRONOS_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining why the invariant holds anyway.
#define CHRONOS_NO_THREAD_SAFETY_ANALYSIS \
  CHRONOS_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace chronos {

class CondVar;

/// std::mutex with the `capability` attribute, so members can be declared
/// CHRONOS_GUARDED_BY an instance and functions CHRONOS_REQUIRES it.
/// Same size and cost as std::mutex; the wrapper exists purely to carry
/// annotations (std::mutex itself cannot, portably).
class CHRONOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CHRONOS_ACQUIRE() { mu_.lock(); }
  void unlock() CHRONOS_RELEASE() { mu_.unlock(); }
  bool try_lock() CHRONOS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped lock over chronos::Mutex (the annotated analogue of
/// std::lock_guard). A SCOPED_CAPABILITY, so the analysis knows the
/// capability is held exactly for this object's lifetime — early returns
/// and exceptions included.
class CHRONOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CHRONOS_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CHRONOS_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with chronos::Mutex. wait() requires the
/// mutex held (enforced at compile time on clang); the predicate overload
/// runs `pred` only while the mutex is held, so predicates reading
/// guarded state annotate themselves CHRONOS_REQUIRES(mu) and the
/// analysis closes end-to-end.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning — the capability is held again on exit, which is why the
  /// annotation is REQUIRES (held before AND after), not RELEASE.
  void wait(Mutex& mu) CHRONOS_REQUIRES(mu) {
    // Borrow the already-held native mutex for the native wait; release()
    // hands ownership back without unlocking, so the lock state on exit
    // matches the annotation.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Waits until `pred()` is true. The predicate is evaluated with `mu`
  /// held, in this (annotated) frame — not inside the standard library —
  /// so a CHRONOS_REQUIRES(mu) predicate type-checks.
  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) CHRONOS_REQUIRES(mu) {
    while (!pred()) wait(mu);
  }

 private:
  std::condition_variable cv_;
};

}  // namespace chronos
