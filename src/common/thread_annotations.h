#ifndef GRALMATCH_COMMON_THREAD_ANNOTATIONS_H_
#define GRALMATCH_COMMON_THREAD_ANNOTATIONS_H_

/// \file thread_annotations.h
/// Clang Thread Safety Analysis attribute macros, in the idiom of LLVM's
/// mutex.h example and abseil's thread_annotations.h. On Clang these expand
/// to the `capability`-based attributes that `-Wthread-safety` checks at
/// compile time; on every other compiler they expand to nothing, so the
/// annotations are free documentation there.
///
/// Conventions (enforced repo-wide, see docs/static-analysis.md):
///  - Every member guarded by a mutex carries GUARDED_BY(mu_). The analysis
///    then rejects any read or write without the mutex held.
///  - Functions that must be called with a lock held are marked
///    REQUIRES(mu_); functions that must NOT hold it are marked
///    EXCLUDES(mu_).
///  - Use the annotated gralmatch::Mutex / MutexLock / CondVar wrappers
///    (common/mutex.h) instead of raw std::mutex so acquisition and release
///    are visible to the analysis. std::lock_guard / std::unique_lock over a
///    std::mutex are invisible to it.
///  - NO_THREAD_SAFETY_ANALYSIS is an escape hatch of last resort; every use
///    must carry a comment explaining why the analysis cannot see the
///    invariant.

#if defined(__clang__)
#define GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op off Clang
#endif

/// A type that models a capability (a lock): Mutex in common/mutex.h.
#define CAPABILITY(x) GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// An RAII type that acquires a capability at construction and releases it
/// at destruction: MutexLock in common/mutex.h.
#define SCOPED_CAPABILITY GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Data member readable/writable only with the given capability held.
#define GUARDED_BY(x) GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given capability.
#define PT_GUARDED_BY(x) GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Declared lock-acquisition order between two mutexes (deadlock checking).
#define ACQUIRED_BEFORE(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// The function must be called with the capability held (and does not
/// release it).
#define REQUIRES(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the capability.
#define ACQUIRE(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// The function must be called with the capability NOT held (it will
/// acquire it itself, or taking it would self-deadlock).
#define EXCLUDES(...) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disable the analysis for one function. Every use must
/// carry a comment explaining the invariant the analysis cannot see.
#define NO_THREAD_SAFETY_ANALYSIS \
  GRALMATCH_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // GRALMATCH_COMMON_THREAD_ANNOTATIONS_H_
