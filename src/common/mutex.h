#ifndef GRALMATCH_COMMON_MUTEX_H_
#define GRALMATCH_COMMON_MUTEX_H_

/// \file mutex.h
/// Annotated synchronization wrappers over std::mutex and
/// std::condition_variable. Raw std:: synchronization is invisible to
/// Clang's Thread Safety Analysis; these thin wrappers carry the capability
/// attributes (common/thread_annotations.h), so every lock acquisition and
/// every access to GUARDED_BY state is machine-checked under
/// `-Wthread-safety` on the clang CI legs. Zero overhead: every member is a
/// one-line inline forward.
///
/// Rule (docs/static-analysis.md): new concurrent code uses gralmatch::Mutex
/// + MutexLock + CondVar, never bare std::mutex — tools/check_invariants.py
/// and code review hold the line.

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace gralmatch {

/// \brief An annotated std::mutex: a TSA "capability".
///
/// Prefer the scoped MutexLock over manual Lock()/Unlock() pairs; the
/// analysis accepts both, but scopes cannot leak a held lock on an early
/// return.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief Scoped lock over a Mutex (the annotated std::lock_guard).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief Condition variable bound to a Mutex at each wait.
///
/// Wait() takes the Mutex explicitly and is annotated REQUIRES(mu), so
/// waiting without the lock held — or re-checking a GUARDED_BY predicate
/// outside it — is a compile error under the analysis. Use the
/// while-loop idiom:
///
///   MutexLock lock(&mu_);
///   while (!predicate_over_guarded_state) cv_.Wait(&mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `*mu`, block, and reacquire before returning.
  /// Spurious wakeups happen; always wait in a predicate loop.
  void Wait(Mutex* mu) REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait protocol, then
    // release ownership back to the caller's scope without unlocking.
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_COMMON_MUTEX_H_
