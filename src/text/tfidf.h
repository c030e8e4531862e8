#ifndef GRALMATCH_TEXT_TFIDF_H_
#define GRALMATCH_TEXT_TFIDF_H_

/// \file tfidf.h
/// Sparse TF-IDF vectorization with cosine similarity, used by the classical
/// logistic-regression matcher baseline and by blocking diagnostics.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace gralmatch {

/// Sparse vector: sorted (feature id, weight) pairs.
struct SparseVector {
  std::vector<std::pair<int32_t, float>> entries;

  /// L2 norm.
  float Norm() const;
};

/// Cosine similarity of two sparse vectors (0 if either has zero norm).
float CosineSimilarity(const SparseVector& a, const SparseVector& b);

/// \brief TF-IDF vectorizer over word tokens.
///
/// Fit() learns the feature space and document frequencies; Transform()
/// produces an L2-normalized TF-IDF vector. Unknown tokens are dropped.
class TfidfVectorizer {
 public:
  /// Learn vocabulary and IDF weights from a corpus.
  /// \param min_df drop tokens appearing in fewer than min_df documents.
  void Fit(const std::vector<std::string>& docs, size_t min_df = 1);

  /// Vectorize a document (L2-normalized).
  SparseVector Transform(std::string_view doc) const;

 private:
  std::unordered_map<std::string, int32_t> feature_ids_;
  std::vector<float> idf_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_TEXT_TFIDF_H_
