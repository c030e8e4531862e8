#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace gralmatch {
namespace e2e {

namespace {

/// Length of the union of `intervals` clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const int64_t s = std::max(start, cursor);
    const int64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int64_t Tracer::Record(const char* name, uint64_t op, int64_t parent,
                       int64_t start_ns, int64_t end_ns) {
  MutexLock lock(&mu_);
  spans_.push_back({name, op, parent, start_ns, end_ns});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(const char* name, uint64_t op, int64_t parent) {
  const int64_t now = NowNs();
  return Record(name, op, parent, now, now);
}

void Tracer::Close(int64_t index) {
  const int64_t now = NowNs();
  MutexLock lock(&mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  MutexLock lock(&mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const TraceSpan& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                               span.end_ns);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& span = spans_[i];
    const int64_t duration = span.end_ns - span.start_ns;
    const int64_t covered =
        CoveredNs(std::move(children[i]), span.start_ns, span.end_ns);
    SpanTotals& t = totals[span.name];
    t.total_s += NsToSeconds(duration);
    t.self_s += NsToSeconds(duration - covered);
  }
  return totals;
}

bool Tracer::WriteTsv(const std::string& path) const {
  MutexLock lock(&mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "index\top\tparent\tname\tstart_us\tend_us\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const TraceSpan& s = spans_[i];
    std::fprintf(file, "%zu\t%llu\t%lld\t%s\t%.3f\t%.3f\n", i,
                 static_cast<unsigned long long>(s.op),
                 static_cast<long long>(s.parent), s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns) * 1e-3);
  }
  return std::fclose(file) == 0;
}

void TimingMatcher::ScoreBatch(const RecordTable& records,
                               Span<const RecordPair> pairs,
                               Span<double> out) const {
  const uint64_t op = tracer_->current_op();
  const int64_t parent = tracer_->current_parent();
  const int64_t start = NowNs();
  inner_->ScoreBatch(records, pairs, out);
  tracer_->Record("matching.score_batch", op, parent, start, NowNs());
  pairs_.fetch_add(pairs.size(), std::memory_order_relaxed);
}

}  // namespace e2e
}  // namespace gralmatch
