#ifndef GRALMATCH_MATCHING_CASCADE_MATCHER_H_
#define GRALMATCH_MATCHING_CASCADE_MATCHER_H_

/// \file cascade_matcher.h
/// Calibrated two-tier scoring cascade: a cheap gate matcher (typically
/// TfidfLogRegMatcher) scores every pair, and only pairs the gate is
/// *uncertain* about — gate score inside [lower_threshold, upper_threshold]
/// — are escalated to an expensive matcher (typically TransformerMatcher).
/// Confident gate verdicts are returned as-is. The escalation band is part
/// of the matcher's identity: different thresholds mean different scores,
/// so Fingerprint() folds them in (the PairwiseMatcher contract).
///
/// The quality trade is pinned, not hoped for: tests/golden_test.cc runs
/// the cascade against the exact (non-cascaded) expensive reference in two
/// modes — `exact_reference = true` must reproduce the expensive matcher
/// bitwise, and the real cascade's quality delta is pinned as constants.
/// See docs/matchers.md "Score cascade".

#include <atomic>
#include <cstdint>
#include <string>

#include "matching/matcher.h"

namespace gralmatch {

/// \brief Gates pairs through a cheap matcher, escalating the uncertain
/// band to an expensive one. Non-owning: both inner matchers must outlive
/// the cascade.
class CascadeMatcher : public PairwiseMatcher {
 public:
  struct Options {
    /// Escalation band, inclusive on both ends: a gate score g is resolved
    /// by the gate alone iff g < lower_threshold or g > upper_threshold;
    /// otherwise the pair is escalated and the expensive score is returned.
    double lower_threshold = 0.1;
    double upper_threshold = 0.9;
    /// Audit mode: every pair's returned score comes from the expensive
    /// matcher (bitwise-equal to scoring with the expensive matcher alone),
    /// while the gate still runs and the stats() counters still record what
    /// the cascade *would* have resolved cheaply. This is the differential
    /// reference the pinned-quality-delta golden test compares against.
    bool exact_reference = false;
  };

  /// Both matchers are borrowed, not owned.
  CascadeMatcher(const PairwiseMatcher* gate, const PairwiseMatcher* expensive,
                 Options options);

  std::string name() const override;

  double MatchProbability(const Record& a, const Record& b) const override;

  /// Batched override: one gate ScoreBatch over the whole batch, then one
  /// expensive ScoreBatch over the gathered uncertain band — so the
  /// expensive matcher's own batching (the transformer's packed forward)
  /// amortizes over exactly the pairs that need it. Scores are
  /// bitwise-identical to per-pair MatchProbability for any batch split,
  /// provided both inner matchers honor the ScoreBatch contract.
  void ScoreBatch(const RecordTable& records, Span<const RecordPair> pairs,
                  Span<double> out) const override;

  /// Folds both inner fingerprints, the exact bit patterns of both
  /// thresholds, and the reference mode: any change that can move a score
  /// changes the fingerprint (cache-keying contract in matcher.h).
  std::string Fingerprint() const override;

  /// Cumulative scoring counters (monotone; thread-safe).
  struct Stats {
    uint64_t gate_resolved = 0;  ///< pairs resolved by the gate alone
    uint64_t escalated = 0;      ///< pairs sent to the expensive matcher
  };
  Stats stats() const {
    return Stats{gate_resolved_.load(std::memory_order_relaxed),
                 escalated_.load(std::memory_order_relaxed)};
  }

  const Options& options() const { return options_; }

 private:
  /// True iff a gate score falls in the escalation band.
  bool Escalates(double gate_score) const {
    return gate_score >= options_.lower_threshold &&
           gate_score <= options_.upper_threshold;
  }

  const PairwiseMatcher* gate_;
  const PairwiseMatcher* expensive_;
  Options options_;
  mutable std::atomic<uint64_t> gate_resolved_{0};
  mutable std::atomic<uint64_t> escalated_{0};
};

}  // namespace gralmatch

#endif  // GRALMATCH_MATCHING_CASCADE_MATCHER_H_
