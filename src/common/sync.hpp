// Annotated synchronization primitives: the one home of raw std::mutex.
//
// Every lock in rrp flows through these wrappers so lock discipline is a
// *compile-time* contract, not a convention: the types carry Clang
// thread-safety capability annotations, and the CI `thread-safety` job
// builds the whole tree with `-Wthread-safety -Werror`, rejecting any
// read of a RRP_GUARDED_BY field without its mutex held, any
// RRP_REQUIRES call on an unheld mutex, and any unbalanced
// acquire/release.  Under non-Clang compilers the macros expand to
// nothing and the wrappers are zero-cost shims over the std types.
//
// The AST lint (tools/lint/rrp_lint_ast.py, rule raw-sync-primitive)
// forbids std::mutex / std::lock_guard / std::condition_variable
// everywhere outside this header, and rule unnamed-lock-temporary
// catches the `MutexLock{mu_};` immediately-destructed bug class — which
// is additionally rejected at compile time by the [[nodiscard]]
// constructors below (see tests/negative_compile/).
#pragma once

#include <condition_variable>
#include <mutex>

// -- Clang thread-safety attribute spellings ------------------------------
#if defined(__clang__) && !defined(SWIG) && defined(__has_attribute)
#if __has_attribute(capability)
#define RRP_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef RRP_THREAD_ANNOTATION_
#define RRP_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Declares a type to be a lockable capability ("mutex").
#define RRP_CAPABILITY(x) RRP_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability at construction and
/// releases it at destruction.
#define RRP_SCOPED_CAPABILITY RRP_THREAD_ANNOTATION_(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define RRP_GUARDED_BY(x) RRP_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer field whose *pointee* is protected by `x`.
#define RRP_PT_GUARDED_BY(x) RRP_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function may only be called while holding the listed capabilities.
#define RRP_REQUIRES(...) \
  RRP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define RRP_ACQUIRE(...) \
  RRP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (unheld on return).
#define RRP_RELEASE(...) \
  RRP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function acquires the capability only when it returns `result`.
#define RRP_TRY_ACQUIRE(result, ...) \
  RRP_THREAD_ANNOTATION_(try_acquire_capability(result, __VA_ARGS__))

/// Function must be called with the listed capabilities *not* held
/// (deadlock prevention: it acquires them itself).
#define RRP_EXCLUDES(...) RRP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define RRP_RETURN_CAPABILITY(x) RRP_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch for code whose locking is correct but inexpressible
/// (e.g. locking protocols proven by thread joins).  Use sparingly and
/// leave a comment explaining why the analysis cannot see the proof.
#define RRP_NO_THREAD_SAFETY_ANALYSIS \
  RRP_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace rrp {

class CondVar;

/// A standard mutex carrying the "mutex" capability.  Prefer MutexLock
/// over calling lock()/unlock() directly; the manual form exists for
/// protocols RAII cannot express.
class RRP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RRP_ACQUIRE() { mu_.lock(); }
  void unlock() RRP_RELEASE() { mu_.unlock(); }
  bool try_lock() RRP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII lock over a Mutex: acquires at construction, releases at
/// destruction, with explicit unlock()/lock() for protocols that drop
/// the lock mid-scope (e.g. the branch & bound worker's deadline poll).
///
/// The constructor is [[nodiscard]] so the immediately-destructed
/// temporary `MutexLock{mu_};` — which locks and unlocks in the same
/// statement, guarding nothing — fails compilation under -Werror on GCC
/// and Clang alike.  The parenthesised spelling `MutexLock(mu_);` is a
/// vexing-parse *declaration* of a new variable and fails too, because
/// MutexLock has no default constructor.
class RRP_SCOPED_CAPABILITY MutexLock {
 public:
  [[nodiscard]] explicit MutexLock(Mutex& mu) RRP_ACQUIRE(mu)
      : lock_(mu.mu_) {}

  // Body (not `= default`) because GNU-style attributes are not
  // accepted on defaulted members by every compiler; the unique_lock
  // member performs the actual unlock.
  ~MutexLock() RRP_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases the mutex before the end of scope; balance with lock().
  void unlock() RRP_RELEASE() { lock_.unlock(); }

  /// Re-acquires after an unlock().
  void lock() RRP_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/MutexLock.  wait() atomically
/// releases and re-acquires the lock; to keep the analysis sound, write
/// wait loops explicitly —
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.wait(lock);   // ready_ is RRP_GUARDED_BY(mutex_)
///
/// — rather than with a predicate lambda (the lambda body would be
/// analysed without the caller's capability set and warn spuriously).
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified; `lock` must hold the mutex guarding the
  /// predicate state.  The lock is held again when wait returns.
  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Blocks until notified or `timeout` elapses.
  template <typename Rep, typename Period>
  std::cv_status wait_for(MutexLock& lock,
                          const std::chrono::duration<Rep, Period>& timeout) {
    return cv_.wait_for(lock.lock_, timeout);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace rrp
