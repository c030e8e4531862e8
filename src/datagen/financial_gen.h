#ifndef GRALMATCH_DATAGEN_FINANCIAL_GEN_H_
#define GRALMATCH_DATAGEN_FINANCIAL_GEN_H_

/// \file financial_gen.h
/// Generator of the synthetic multi-source companies & securities benchmark
/// of §3.2, and of the "realistic subset" that stands in for the paper's
/// human-labelled real data (§5.1.1; see DESIGN.md substitution table).

#include <cstdint>

#include "common/rng.h"
#include "data/dataset.h"
#include "datagen/artifacts.h"

namespace gralmatch {

/// Parameters of the synthetic benchmark generation. The paper's generation
/// is "fully parameterizable" in the same sense: group count, source count
/// and per-artifact proportions.
struct SyntheticConfig {
  uint64_t seed = 42;
  size_t num_groups = 2000;       ///< number of company entities
  int num_sources = 5;            ///< data sources (paper: 5)
  ArtifactConfig artifacts;       ///< per-artifact application probabilities

  /// Probability that a company record in a given source carries the
  /// description (when the base company has one).
  double p_description_per_source = 0.65;
  /// Probability that a security is present in each of its company's sources.
  double p_security_per_source = 0.75;
  /// Probability that an identifier carried by the security appears on a
  /// given record of it.
  double p_identifier_per_record = 0.85;
};

/// Companies + securities datasets that share the ground-truth entity space
/// described in §3: securities reference their issuing company record via
/// the "issuer_ref" attribute (a RecordId into `companies.records`).
struct FinancialBenchmark {
  Dataset companies;
  Dataset securities;
};

/// \brief Synthetic benchmark generator (the "datainc" pipeline).
class FinancialGenerator {
 public:
  explicit FinancialGenerator(SyntheticConfig config);

  /// Generate the benchmark. Deterministic given the config seed.
  FinancialBenchmark Generate();

 private:
  SyntheticConfig config_;
};

/// Configuration of the realistic ("real data" stand-in) subset: mostly
/// ID-matchable groups, 8 sources, very few drift events — mirroring the
/// labelled subset the paper describes as containing "a very low proportion
/// of challenging record groups".
SyntheticConfig RealisticSubsetConfig(uint64_t seed, size_t num_groups);

}  // namespace gralmatch

#endif  // GRALMATCH_DATAGEN_FINANCIAL_GEN_H_
