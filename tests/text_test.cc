// Tests for the text substrate: normalization, similarity measures, the
// subword vocabulary, TF-IDF and the corporate-naming helpers.

#include <gtest/gtest.h>

#include "text/corporate.h"
#include "text/normalize.h"
#include "text/similarity.h"
#include "text/tfidf.h"
#include "text/vocab.h"

namespace gralmatch {
namespace {

TEST(NormalizeTest, LowercasesAndStripsPunctuation) {
  EXPECT_EQ(NormalizeText("CrowdStrike Holdings, Inc."),
            "crowdstrike holdings inc");
  EXPECT_EQ(NormalizeText("  A--B  "), "a b");
  EXPECT_EQ(NormalizeText(""), "");
  EXPECT_EQ(NormalizeText("..."), "");
}

TEST(NormalizeTest, KeepsDigits) {
  EXPECT_EQ(NormalizeText("Bond 4.25% 2030"), "bond 4 25 2030");
}

TEST(TokenizeTest, WordsAndStopwords) {
  EXPECT_EQ(TokenizeWords("The Data-Pipeline"),
            (std::vector<std::string>{"the", "data", "pipeline"}));
  EXPECT_EQ(TokenizeContentWords("The Data of Pipeline"),
            (std::vector<std::string>{"data", "pipeline"}));
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_FALSE(IsStopword("data"));
}

TEST(SimilarityTest, LevenshteinKnownValues) {
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("abc", "abc"), 0u);
  EXPECT_EQ(Levenshtein("crowdstrike", "crowdstreet"), 3u);
}

TEST(SimilarityTest, JaroEmptyAndSingleCharEdgeCases) {
  // Empty-vs-empty is a perfect match by convention; empty-vs-nonempty has
  // no matching characters at all.
  EXPECT_DOUBLE_EQ(Jaro("", ""), 1.0);
  EXPECT_DOUBLE_EQ(Jaro("", "a"), 0.0);
  EXPECT_DOUBLE_EQ(Jaro("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(Jaro("a", "a"), 1.0);
  EXPECT_DOUBLE_EQ(Jaro("a", "b"), 0.0);
  // One char against two: m=1, |a|=1, |b|=2, t=0 -> (1/1 + 1/2 + 1)/3.
  EXPECT_DOUBLE_EQ(Jaro("a", "ab"), (1.0 + 1.0 / 2.0 + 1.0) / 3.0);
  EXPECT_DOUBLE_EQ(Jaro("ab", "a"), (1.0 / 2.0 + 1.0 + 1.0) / 3.0);
  // "ab" vs "ba": the match window floor(max/2)-1 = 0 admits no cross
  // matches, so the standard value is 0, not a transposition of 2 matches.
  EXPECT_DOUBLE_EQ(Jaro("ab", "ba"), 0.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("", "x"), 0.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("a", "a"), 1.0);
}

TEST(SimilarityTest, JaroHandComputedReferenceValues) {
  // Classic textbook pairs, against by-hand runs of the Winkler-variant
  // definition: window = max(|a|,|b|)/2 - 1, transpositions = half the
  // matched positions whose characters disagree.
  // martha/marhta: m=6, th<->ht gives t=1 -> (1 + 1 + 5/6)/3 = 17/18.
  EXPECT_DOUBLE_EQ(Jaro("martha", "marhta"), (1.0 + 1.0 + 5.0 / 6.0) / 3.0);
  // dwayne/duane: m=4 (d,a,n,e), t=0 -> (4/6 + 4/5 + 1)/3 = 37/45.
  EXPECT_DOUBLE_EQ(Jaro("dwayne", "duane"),
                   (4.0 / 6.0 + 4.0 / 5.0 + 1.0) / 3.0);
  // dixon/dicksonx: m=4 (d,i,o,n), t=0 -> (4/5 + 4/8 + 1)/3 = 23/30.
  EXPECT_DOUBLE_EQ(Jaro("dixon", "dicksonx"),
                   (4.0 / 5.0 + 4.0 / 8.0 + 1.0) / 3.0);
  // crate/trace: window 1 admits only r,a,e -> (3/5 + 3/5 + 1)/3 = 11/15.
  EXPECT_DOUBLE_EQ(Jaro("crate", "trace"), (3.0 / 5.0 + 3.0 / 5.0 + 1.0) / 3.0);
  // abcd/badc: all four chars match, every matched position disagrees ->
  // t=2 -> (1 + 1 + 2/4)/3.
  EXPECT_DOUBLE_EQ(Jaro("abcd", "badc"), (1.0 + 1.0 + 2.0 / 4.0) / 3.0);
}

TEST(SimilarityTest, JaroWinklerHandComputedReferenceValues) {
  // jw = j + 0.1 * prefix * (1 - j), prefix capped at 4.
  const double j_martha = (1.0 + 1.0 + 5.0 / 6.0) / 3.0;
  EXPECT_DOUBLE_EQ(JaroWinkler("martha", "marhta"),
                   j_martha + 0.1 * 3.0 * (1.0 - j_martha));
  const double j_dwayne = (4.0 / 6.0 + 4.0 / 5.0 + 1.0) / 3.0;
  EXPECT_DOUBLE_EQ(JaroWinkler("dwayne", "duane"),
                   j_dwayne + 0.1 * 1.0 * (1.0 - j_dwayne));
  const double j_dixon = (4.0 / 5.0 + 4.0 / 8.0 + 1.0) / 3.0;
  EXPECT_DOUBLE_EQ(JaroWinkler("dixon", "dicksonx"),
                   j_dixon + 0.1 * 2.0 * (1.0 - j_dixon));
  // Prefix boost caps at 4 shared characters even when more agree.
  const double j_abcdef = (4.0 / 6.0 + 4.0 / 6.0 + 1.0) / 3.0;
  EXPECT_DOUBLE_EQ(JaroWinkler("abcdef", "abcdxy"),
                   j_abcdef + 0.1 * 4.0 * (1.0 - j_abcdef));
}

TEST(SimilarityTest, JaroWinklerProperties) {
  EXPECT_DOUBLE_EQ(JaroWinkler("martha", "martha"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinkler("abc", ""), 0.0);
  // Known value: MARTHA vs MARHTA.
  EXPECT_NEAR(Jaro("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroWinkler("martha", "marhta"), 0.9611, 1e-3);
  // Shared prefixes boost Winkler above plain Jaro.
  EXPECT_GT(JaroWinkler("crowdstrike", "crowdstreet"),
            Jaro("crowdstrike", "crowdstreet"));
}

TEST(SimilarityTest, JaccardTokens) {
  EXPECT_DOUBLE_EQ(JaccardTokens({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(JaccardTokens({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardTokens({"a"}, {}), 0.0);
  // Multiset duplicates collapse.
  EXPECT_DOUBLE_EQ(JaccardTokens({"a", "a"}, {"a"}), 1.0);
}

TEST(SimilarityTest, TokenOverlapCount) {
  EXPECT_EQ(TokenOverlapCount({"x", "y", "z"}, {"y", "z", "w"}), 2u);
  EXPECT_EQ(TokenOverlapCount({}, {"a"}), 0u);
}

TEST(SimilarityTest, CharNgrams) {
  // The character n-grams are file-local to similarity.cc; they are seen
  // through TrigramSimilarity. Trigrams are contiguous and overlapping:
  // {abc, bcd} vs {bcd, cde}.
  EXPECT_DOUBLE_EQ(TrigramSimilarity("abcd", "bcde"), 1.0 / 3.0);
  // Strings shorter than three characters have no trigrams: they match
  // only when equal, and never a string that has trigrams.
  EXPECT_DOUBLE_EQ(TrigramSimilarity("ab", "cd"), 0.0);
  EXPECT_DOUBLE_EQ(TrigramSimilarity("ab", "abc"), 0.0);
}

TEST(SimilarityTest, TrigramSimilarityOrdersPairsSensibly) {
  double close = TrigramSimilarity("CrowdStrike", "Crowd Strike");
  double far = TrigramSimilarity("CrowdStrike", "Volkswagen");
  EXPECT_GT(close, far);
  EXPECT_DOUBLE_EQ(TrigramSimilarity("ab", "ab"), 1.0);
}

TEST(VocabTest, FrequentWordsBecomeWholeTokens) {
  SubwordVocab vocab;
  vocab.Train({"alpha beta", "alpha gamma", "alpha beta"}, 100);
  std::vector<int32_t> out;
  vocab.EncodeWord("alpha", &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(vocab.TokenText(out[0]), "alpha");
}

TEST(VocabTest, UnknownWordsDecomposeIntoPieces) {
  SubwordVocab vocab;
  vocab.Train({"crowdstrike platforms", "crowdstreet properties"}, 100);
  std::vector<int32_t> out;
  vocab.EncodeWord("crowdware", &out);  // unseen word, seen substrings
  EXPECT_GT(out.size(), 1u);
  for (int32_t id : out) {
    EXPECT_NE(id, SpecialTokens::kPad);
  }
}

TEST(VocabTest, EncodeTextNeverEmptyForNonEmptyInput) {
  SubwordVocab vocab;
  vocab.Train({"some corpus text"}, 10);
  EXPECT_FALSE(vocab.EncodeText("zzzqqq").empty());
  EXPECT_TRUE(vocab.EncodeText("").empty());
}

TEST(VocabTest, VocabCapRespected) {
  std::vector<std::string> docs;
  for (int i = 0; i < 50; ++i) {
    docs.push_back("word" + std::to_string(i));
  }
  SubwordVocab small;
  small.Train(docs, 5);
  SubwordVocab big;
  big.Train(docs, 50);
  EXPECT_LT(small.size(), big.size());
}

TEST(VocabTest, SaveLoadRoundTrip) {
  SubwordVocab vocab;
  vocab.Train({"alpha beta gamma", "alpha delta"}, 100);
  std::string path = ::testing::TempDir() + "/vocab_roundtrip.txt";
  ASSERT_TRUE(vocab.Save(path).ok());

  SubwordVocab loaded;
  ASSERT_TRUE(loaded.Load(path).ok());
  EXPECT_EQ(loaded.size(), vocab.size());
  EXPECT_EQ(loaded.EncodeText("alpha beta unseenxyz"),
            vocab.EncodeText("alpha beta unseenxyz"));
}

TEST(VocabTest, SpecialTokenTexts) {
  SubwordVocab vocab;
  EXPECT_EQ(vocab.TokenText(SpecialTokens::kCls), "[CLS]");
  EXPECT_EQ(vocab.TokenText(SpecialTokens::kSep), "[SEP]");
  EXPECT_EQ(vocab.TokenText(SpecialTokens::kCol), "[COL]");
  EXPECT_EQ(vocab.TokenText(SpecialTokens::kVal), "[VAL]");
  EXPECT_EQ(vocab.TokenText(9999), "<unk#>");
}

TEST(TfidfTest, CosineIdentityAndDisjoint) {
  TfidfVectorizer tfidf;
  tfidf.Fit({"apple banana", "banana cherry", "apple cherry"});
  auto a = tfidf.Transform("apple banana");
  EXPECT_NEAR(CosineSimilarity(a, a), 1.0f, 1e-5f);
  auto b = tfidf.Transform("cherry");
  auto zero = tfidf.Transform("unseen tokens only");
  EXPECT_EQ(CosineSimilarity(a, zero), 0.0f);
  EXPECT_GT(CosineSimilarity(a, b), -1e-9f);
}

TEST(TfidfTest, RareTokensWeighMore) {
  TfidfVectorizer tfidf;
  tfidf.Fit({"common rare1", "common rare2", "common rare3"});
  auto v = tfidf.Transform("common rare1");
  // Two features; the rare one should get the larger weight.
  ASSERT_EQ(v.entries.size(), 2u);
  float common_w = 0.0f, rare_w = 0.0f;
  auto c = tfidf.Transform("common");
  ASSERT_EQ(c.entries.size(), 1u);
  for (const auto& [id, w] : v.entries) {
    if (id == c.entries[0].first) common_w = w;
    else rare_w = w;
  }
  EXPECT_GT(rare_w, common_w);
}

TEST(TfidfTest, MinDfFiltersHapaxes) {
  TfidfVectorizer tfidf;
  tfidf.Fit({"a b", "a c", "a d"}, /*min_df=*/2);
  // Only "a" survives as a feature.
  EXPECT_EQ(tfidf.Transform("a b c d").entries.size(), 1u);
}

TEST(CorporateTest, TermDetection) {
  EXPECT_TRUE(IsCorporateTerm("Inc"));
  EXPECT_TRUE(IsCorporateTerm("holdings"));
  EXPECT_FALSE(IsCorporateTerm("crowdstrike"));
}

TEST(CorporateTest, AcronymSkipsCorporateTermsAndStopwords) {
  EXPECT_EQ(MakeAcronym("Crowd Strike Platforms Inc"), "CSP");
  EXPECT_EQ(MakeAcronym("Bank of America Corp"), "BA");
  // Single contributing token: ambiguous, no acronym.
  EXPECT_EQ(MakeAcronym("CrowdStrike Inc"), "");
  EXPECT_EQ(MakeAcronym(""), "");
}

TEST(CorporateTest, CanonicalNameStripsLegalForms) {
  EXPECT_EQ(CanonicalCompanyName("CrowdStrike Holdings, Inc."), "crowdstrike");
  EXPECT_EQ(CanonicalCompanyName("Acme Data Ltd"), "acme data");
}

}  // namespace
}  // namespace gralmatch
