// Property tests for the identifier-standard generators: every generated
// identifier must validate (check digits included), and single-character
// mutations must be caught by the check digit with high probability.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/identifiers.h"

namespace gralmatch {
namespace {

class IdentifierSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IdentifierSeedTest, GeneratedIsinsValidate) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::string isin = GenerateIsin(&rng);
    EXPECT_TRUE(IsValidIsin(isin)) << isin;
    EXPECT_EQ(isin.size(), 12u);
  }
}

TEST_P(IdentifierSeedTest, GeneratedCusipsValidate) {
  Rng rng(GetParam() ^ 1);
  for (int i = 0; i < 200; ++i) {
    std::string cusip = GenerateCusip(&rng);
    EXPECT_TRUE(IsValidCusip(cusip)) << cusip;
    EXPECT_EQ(cusip.size(), 9u);
  }
}

TEST_P(IdentifierSeedTest, GeneratedSedolsValidate) {
  Rng rng(GetParam() ^ 2);
  for (int i = 0; i < 200; ++i) {
    std::string sedol = GenerateSedol(&rng);
    EXPECT_TRUE(IsValidSedol(sedol)) << sedol;
    EXPECT_EQ(sedol.size(), 7u);
  }
}

TEST_P(IdentifierSeedTest, GeneratedValorsValidate) {
  Rng rng(GetParam() ^ 3);
  for (int i = 0; i < 200; ++i) {
    std::string valor = GenerateValor(&rng);
    EXPECT_TRUE(IsValidValor(valor)) << valor;
  }
}

// Mutating one digit of an identifier must break the check digit (always,
// for the numeric mutations tested here).
TEST_P(IdentifierSeedTest, IsinDigitMutationDetected) {
  Rng rng(GetParam() ^ 5);
  for (int i = 0; i < 100; ++i) {
    std::string isin = GenerateIsin(&rng);
    size_t pos = 2 + rng.Uniform(10);
    char original = isin[pos];
    if (original < '0' || original > '9') continue;
    char mutated = static_cast<char>('0' + (original - '0' + 1 + rng.Uniform(8)) % 10);
    if (mutated == original) continue;
    isin[pos] = mutated;
    EXPECT_FALSE(IsValidIsin(isin)) << isin;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdentifierSeedTest,
                         ::testing::Values(1u, 42u, 7777u, 123456789u));

TEST(IdentifierTest, KnownRealIsins) {
  // Real-world ISINs with correct check digits.
  EXPECT_TRUE(IsValidIsin("US0378331005"));  // Apple
  EXPECT_TRUE(IsValidIsin("US5949181045"));  // Microsoft
  EXPECT_FALSE(IsValidIsin("US0378331006"));
  EXPECT_FALSE(IsValidIsin("us0378331005"));  // lower-case prefix
  EXPECT_FALSE(IsValidIsin("US03783310"));    // wrong length
}

TEST(IdentifierTest, KnownRealCusip) {
  EXPECT_TRUE(IsValidCusip("037833100"));  // Apple
  EXPECT_FALSE(IsValidCusip("037833101"));
  EXPECT_FALSE(IsValidCusip("0378331"));
}

TEST(IdentifierTest, KnownRealSedol) {
  EXPECT_TRUE(IsValidSedol("0263494"));  // BAE Systems
  EXPECT_FALSE(IsValidSedol("0263495"));
  EXPECT_FALSE(IsValidSedol("A263494"));  // vowel
}

TEST(IdentifierTest, ValorShape) {
  EXPECT_TRUE(IsValidValor("123456"));
  EXPECT_FALSE(IsValidValor("12345"));       // too short
  EXPECT_FALSE(IsValidValor("1234567890"));  // too long
  EXPECT_FALSE(IsValidValor("12345a"));
}

TEST(IdentifierTest, CountryPrefixHonored) {
  Rng rng(5);
  std::string isin = GenerateIsin(&rng, "CH");
  EXPECT_EQ(isin.substr(0, 2), "CH");
  EXPECT_TRUE(IsValidIsin(isin));
}

TEST(IdentifierTest, GeneratorsProduceDistinctValues) {
  Rng rng(9);
  std::string a = GenerateIsin(&rng);
  std::string b = GenerateIsin(&rng);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace gralmatch
