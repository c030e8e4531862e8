#include "matching/baselines.h"

#include <cmath>
#include <cstring>

#include "blocking/id_overlap.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "text/corporate.h"
#include "text/normalize.h"
#include "text/similarity.h"

namespace gralmatch {

namespace {

bool ShareIdentifier(const Record& a, const Record& b) {
  for (const auto& attr : IdentifierAttributes()) {
    auto va = a.GetMulti(attr);
    if (va.empty()) continue;
    auto vb = b.GetMulti(attr);
    for (const auto& x : va) {
      for (const auto& y : vb) {
        if (x == y) return true;
      }
    }
  }
  return false;
}

std::string_view NameOf(const Record& r) {
  std::string_view name = r.Get("name");
  return name.empty() ? r.Get("title") : name;
}

}  // namespace

double HeuristicIdMatcher::MatchProbability(const Record& a,
                                            const Record& b) const {
  return ShareIdentifier(a, b) ? 1.0 : 0.0;
}

std::vector<float> TfidfLogRegMatcher::Features(const Record& a,
                                                const Record& b) const {
  std::vector<float> f(kNumFeatures, 0.0f);
  f[0] = CosineSimilarity(tfidf_.Transform(a.AllText()),
                          tfidf_.Transform(b.AllText()));
  auto ta = TokenizeWords(NameOf(a)), tb = TokenizeWords(NameOf(b));
  f[1] = static_cast<float>(JaccardTokens(ta, tb));
  f[2] = static_cast<float>(JaroWinkler(CanonicalCompanyName(NameOf(a)),
                                        CanonicalCompanyName(NameOf(b))));
  f[3] = ShareIdentifier(a, b) ? 1.0f : 0.0f;
  return f;
}

void TfidfLogRegMatcher::Train(const RecordTable& records,
                               const std::vector<LabeledPair>& pairs) {
  std::vector<std::string> docs;
  docs.reserve(records.size());
  for (const auto& rec : records.records()) docs.push_back(rec.AllText());
  tfidf_ = TfidfVectorizer();
  tfidf_.Fit(docs, /*min_df=*/2);

  weights_.assign(kNumFeatures + 1, 0.0f);  // bias last
  std::vector<std::vector<float>> features;
  features.reserve(pairs.size());
  for (const auto& lp : pairs) {
    features.push_back(Features(records.at(lp.pair.a), records.at(lp.pair.b)));
  }

  Rng rng(options_.seed);
  std::vector<size_t> order(pairs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t idx : order) {
      const auto& f = features[idx];
      float z = weights_[kNumFeatures];
      for (size_t j = 0; j < kNumFeatures; ++j) z += weights_[j] * f[j];
      float p = 1.0f / (1.0f + std::exp(-z));
      float g = p - static_cast<float>(pairs[idx].label);
      for (size_t j = 0; j < kNumFeatures; ++j) {
        weights_[j] -= options_.lr * g * f[j];
      }
      weights_[kNumFeatures] -= options_.lr * g;
    }
  }
}

double TfidfLogRegMatcher::MatchProbability(const Record& a,
                                            const Record& b) const {
  auto f = Features(a, b);
  float z = weights_.empty() ? 0.0f : weights_[kNumFeatures];
  for (size_t j = 0; j < kNumFeatures && j < weights_.size(); ++j) {
    z += weights_[j] * f[j];
  }
  return 1.0 / (1.0 + std::exp(-z));
}

std::string TfidfLogRegMatcher::Fingerprint() const {
  // FNV-1a over the learned weights' little-endian bit patterns: any
  // retraining that changes a single weight bit changes the fingerprint.
  BinaryWriter bytes;
  for (float w : weights_) {
    uint32_t bits;
    static_assert(sizeof(bits) == sizeof(w), "float is 32-bit");
    std::memcpy(&bits, &w, sizeof(bits));
    bytes.WriteU32(bits);
  }
  return name() + "#" +
         std::to_string(Fnv1a64(bytes.buffer(), kFnv1a64ShortOffset));
}

}  // namespace gralmatch
