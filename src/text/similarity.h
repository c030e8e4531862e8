#ifndef GRALMATCH_TEXT_SIMILARITY_H_
#define GRALMATCH_TEXT_SIMILARITY_H_

/// \file similarity.h
/// Classical string and token-set similarity measures, used by heuristic
/// matchers, blocking diagnostics and tests.

#include <string_view>
#include <vector>
#include <string>

namespace gralmatch {

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
size_t Levenshtein(std::string_view a, std::string_view b);

/// Jaro similarity in [0, 1].
double Jaro(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0, 1] with standard prefix scale 0.1.
double JaroWinkler(std::string_view a, std::string_view b);

/// Jaccard similarity of two token multisets treated as sets.
double JaccardTokens(const std::vector<std::string>& a,
                     const std::vector<std::string>& b);

/// Number of distinct tokens present in both a and b.
size_t TokenOverlapCount(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);

/// Jaccard similarity of char trigram sets (with normalization applied first).
double TrigramSimilarity(std::string_view a, std::string_view b);

}  // namespace gralmatch

#endif  // GRALMATCH_TEXT_SIMILARITY_H_
