#ifndef GRALMATCH_E2EBENCH_TRACE_H_
#define GRALMATCH_E2EBENCH_TRACE_H_

/// \file trace.h
/// Benchmark-side tracing: spans recorded around every public call the
/// harness makes, plus a forwarding matcher that times ScoreBatch. Spans
/// live in memory and are written out once, when the run ends. Nothing
/// here reaches into the library: a traced pass drives exactly the same
/// public calls as an untraced one, which is what lets the harness prove
/// the tracing inert (equal final snapshots).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "matching/matcher.h"

namespace gralmatch {
namespace e2e {

/// Monotonic nanoseconds since an arbitrary process-wide origin.
int64_t NowNs();

inline double NsToSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One recorded interval. `op` groups every span of one mutation or one
/// request; `parent` is the index of the enclosing span, or -1.
struct TraceSpan {
  const char* name = "";
  uint64_t op = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name roll-up: summed duration and summed self time (duration minus
/// the union of its children's intervals).
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
};

/// \brief In-memory span recorder. Thread-safe: scoring workers record
/// through the forwarding matcher while the main thread records its own.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends a finished span and returns its index.
  int64_t Record(const char* name, uint64_t op, int64_t parent,
                 int64_t start_ns, int64_t end_ns);

  /// Opens a span whose end is filled in by Close(); returns its index.
  int64_t Open(const char* name, uint64_t op, int64_t parent);
  void Close(int64_t index);

  /// The span scoring workers attach their ScoreBatch spans to: the
  /// main thread sets it around each pipeline mutation.
  void SetCurrent(uint64_t op, int64_t parent) {
    current_op_.store(op, std::memory_order_relaxed);
    current_parent_.store(parent, std::memory_order_relaxed);
  }
  uint64_t current_op() const {
    return current_op_.load(std::memory_order_relaxed);
  }
  int64_t current_parent() const {
    return current_parent_.load(std::memory_order_relaxed);
  }

  /// The first of `count` fresh ids, one per mutation or request.
  uint64_t NextOp(uint64_t count = 1) {
    return next_op_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Roll-up per span name over every span recorded so far.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes every span as one tab-separated line
  /// (index, op, parent, name, start_us, end_us). Returns false on error.
  bool WriteTsv(const std::string& path) const;

 private:
  mutable Mutex mu_;
  /// A deque, not a vector: appending never copies the spans recorded so
  /// far, so a recording thread never stalls behind a reallocation.
  std::deque<TraceSpan> spans_ GUARDED_BY(mu_);
  std::atomic<uint64_t> next_op_{1};
  std::atomic<uint64_t> current_op_{0};
  std::atomic<int64_t> current_parent_{-1};
};

/// \brief RAII span on the calling thread; a null tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t op,
            int64_t parent = -1)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1 : tracer->Open(name, op, parent)) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t index() const { return index_; }

 private:
  Tracer* const tracer_;
  const int64_t index_;
};

/// \brief Forwarding matcher that times every ScoreBatch call. Scores and
/// Fingerprint() are the inner matcher's, so pipelines and their score
/// caches cannot tell the difference.
class TimingMatcher final : public PairwiseMatcher {
 public:
  TimingMatcher(const PairwiseMatcher* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  std::string Fingerprint() const override { return inner_->Fingerprint(); }
  double MatchProbability(const Record& a, const Record& b) const override {
    return inner_->MatchProbability(a, b);
  }
  void ScoreBatch(const RecordTable& records, Span<const RecordPair> pairs,
                  Span<double> out) const override;

  uint64_t pairs() const { return pairs_.load(std::memory_order_relaxed); }

 private:
  const PairwiseMatcher* inner_;
  Tracer* tracer_;
  mutable std::atomic<uint64_t> pairs_{0};
};

}  // namespace e2e
}  // namespace gralmatch

#endif  // GRALMATCH_E2EBENCH_TRACE_H_
