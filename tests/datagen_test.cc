// Tests for the synthetic benchmark generators: name model, paraphraser,
// data artifacts, the financial companies/securities generator and the
// WDC-products generator.

#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "datagen/artifacts.h"
#include "datagen/financial_gen.h"
#include "datagen/name_model.h"
#include "datagen/paraphrase.h"
#include "datagen/wdc_gen.h"
#include "text/normalize.h"
#include "text/similarity.h"

namespace gralmatch {
namespace {

TEST(NameModelTest, DeterministicPerSeedAndIndex) {
  CompanyNameModel a(42), b(42), c(43);
  BaseCompany x = a.Generate(7);
  BaseCompany y = b.Generate(7);
  EXPECT_EQ(x.name, y.name);
  EXPECT_EQ(x.city, y.city);
  EXPECT_EQ(x.short_description, y.short_description);
  BaseCompany z = c.Generate(7);
  // Different model seed: overwhelmingly likely to differ.
  EXPECT_NE(x.name + x.city, z.name + z.city);
}

TEST(NameModelTest, FieldsPopulated) {
  CompanyNameModel model(1);
  for (size_t i = 0; i < 50; ++i) {
    BaseCompany c = model.Generate(i);
    EXPECT_FALSE(c.name.empty());
    EXPECT_FALSE(c.city.empty());
    EXPECT_FALSE(c.country_code.empty());
    EXPECT_FALSE(c.industry.empty());
    EXPECT_FALSE(c.ticker.empty());
    EXPECT_FALSE(c.stem_prefix.empty());
    EXPECT_FALSE(c.stem_suffix.empty());
  }
}

TEST(NameModelTest, DescriptionRateNearConfigured) {
  CompanyNameModel model(2);
  int with_desc = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (!model.Generate(static_cast<size_t>(i)).short_description.empty()) {
      ++with_desc;
    }
  }
  EXPECT_NEAR(static_cast<double>(with_desc) / n, 0.5, 0.05);
}

TEST(NameModelTest, NameCollisionsExist) {
  // The compositional stems must create distinct entities sharing tokens —
  // the Crowdstrike/Crowdstreet phenomenon the benchmark needs.
  CompanyNameModel model(3);
  std::unordered_set<std::string> first_tokens;
  int collisions = 0;
  for (size_t i = 0; i < 500; ++i) {
    auto toks = TokenizeWords(model.Generate(i).name);
    ASSERT_FALSE(toks.empty());
    if (!first_tokens.insert(toks[0]).second) ++collisions;
  }
  EXPECT_GT(collisions, 50);
}

TEST(ParaphraseTest, ChangesTextButKeepsTokens) {
  Paraphraser para;
  Rng rng(5);
  std::string original =
      "Acme provides analytics solutions for enterprise customers in Zurich.";
  std::string rewritten = para.Paraphrase(original, &rng);
  EXPECT_NE(rewritten, original);
  auto ta = TokenizeContentWords(original);
  auto tb = TokenizeContentWords(rewritten);
  EXPECT_GT(TokenOverlapCount(ta, tb), ta.size() / 3);
}

TEST(ParaphraseTest, AlwaysDiffersForNonTrivialInput) {
  Paraphraser para;
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    std::string text = "Some unremarkable sentence number " +
                       std::to_string(i) + " without synonyms.";
    EXPECT_NE(para.Paraphrase(text, &rng), text);
  }
}

GroupDraft MakeDraft() {
  GroupDraft g;
  g.company_entity = 0;
  g.base.name = "Crowd Strike Platforms Inc";
  g.base.stem_prefix = "crowd";
  g.base.stem_suffix = "strike";
  g.base.city = "Austin";
  g.base.short_description = "Provides security solutions for enterprises.";
  g.sources = {0, 1, 2, 3};
  g.name_variant = {0, 0, 0, 0};
  g.use_acronym.assign(4, false);
  SecurityDraft sec;
  sec.entity = 0;
  sec.name = "Crowd Strike Platforms Common Stock";
  sec.isins = {"US0000000001"};
  sec.cusips = {"CUSIP0001"};
  sec.present_in = {0, 1, 2, 3};
  g.securities.push_back(sec);
  return g;
}

TEST(ArtifactTest, AcronymNameMarksSources) {
  GroupDraft g = MakeDraft();
  Rng rng(1);
  ApplyAcronymName(&g, &rng);
  int marked = 0;
  for (bool b : g.use_acronym) marked += b;
  EXPECT_GT(marked, 0);
}

TEST(ArtifactTest, InsertCorporateTermChoosesTerm) {
  GroupDraft g = MakeDraft();
  Rng rng(2);
  ApplyInsertCorporateTerm(&g, &rng);
  EXPECT_FALSE(g.inserted_corporate_term.empty());
}

TEST(ArtifactTest, ParaphraseMutatesDescription) {
  GroupDraft g = MakeDraft();
  std::string before = g.base.short_description;
  Paraphraser para;
  Rng rng(3);
  ApplyParaphraseAttribute(&g, para, &rng);
  EXPECT_NE(g.base.short_description, before);

  // No description: no-op, no crash.
  GroupDraft empty = MakeDraft();
  empty.base.short_description.clear();
  ApplyParaphraseAttribute(&empty, para, &rng);
  EXPECT_TRUE(empty.base.short_description.empty());
}

TEST(ArtifactTest, MultipleIdsAddsValues) {
  GroupDraft g = MakeDraft();
  Rng rng(4);
  ApplyMultipleIds(&g, &rng);
  EXPECT_EQ(g.securities[0].isins.size(), 2u);
  EXPECT_EQ(g.securities[0].cusips.size(), 2u);
  EXPECT_TRUE(g.securities[0].sedols.empty());  // none present, none added
}

TEST(ArtifactTest, NoIdOverlapsMarksAllSecurities) {
  GroupDraft g = MakeDraft();
  ApplyNoIdOverlaps(&g);
  for (const auto& sec : g.securities) {
    EXPECT_TRUE(sec.no_id_overlaps);
  }
}

TEST(ArtifactTest, MultipleSecuritiesAddsFreshEntities) {
  GroupDraft g = MakeDraft();
  Rng rng(5);
  EntityId next = 100;
  ApplyMultipleSecurities(&g, &rng, &next);
  EXPECT_GT(g.securities.size(), 1u);
  EXPECT_GT(next, 100);
  for (size_t i = 1; i < g.securities.size(); ++i) {
    EXPECT_GE(g.securities[i].entity, 100);
    EXPECT_FALSE(g.securities[i].isins.empty());
    EXPECT_FALSE(g.securities[i].present_in.empty());
  }
}

TEST(ArtifactTest, AcquisitionCreatesOverwrites) {
  GroupDraft acquirer = MakeDraft();
  GroupDraft acquiree = MakeDraft();
  Rng rng(6);
  ApplyAcquisition(&acquirer, &acquiree, &rng);
  EXPECT_TRUE(acquirer.involved_in_acquisition);
  EXPECT_TRUE(acquiree.involved_in_acquisition);
  EXPECT_FALSE(acquiree.overwrites.empty());
  for (const auto& ow : acquiree.overwrites) {
    EXPECT_TRUE(ow.overwrite_company);
    EXPECT_TRUE(ow.overwrite_security_ids);
  }
}

TEST(ArtifactTest, MergerOverwritesIdsOnly) {
  GroupDraft left = MakeDraft();
  GroupDraft right = MakeDraft();
  Rng rng(7);
  ApplyMerger(&left, &right, &rng);
  EXPECT_TRUE(left.involved_in_merger);
  EXPECT_FALSE(left.overwrites.empty());
  for (const auto& ow : left.overwrites) {
    EXPECT_FALSE(ow.overwrite_company);
    EXPECT_TRUE(ow.overwrite_security_ids);
  }
}

SyntheticConfig SmallConfig(uint64_t seed = 11) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_groups = 300;
  return config;
}

TEST(FinancialGenTest, DeterministicGeneration) {
  FinancialGenerator g1(SmallConfig()), g2(SmallConfig());
  FinancialBenchmark a = g1.Generate();
  FinancialBenchmark b = g2.Generate();
  ASSERT_EQ(a.companies.records.size(), b.companies.records.size());
  ASSERT_EQ(a.securities.records.size(), b.securities.records.size());
  for (size_t i = 0; i < a.companies.records.size(); ++i) {
    EXPECT_EQ(a.companies.records.at(static_cast<RecordId>(i)).AllText(),
              b.companies.records.at(static_cast<RecordId>(i)).AllText());
  }
}

TEST(FinancialGenTest, ShapeMatchesPaperRatios) {
  FinancialGenerator gen(SmallConfig());
  FinancialBenchmark bench = gen.Generate();

  size_t groups = 300;
  double records_per_group =
      static_cast<double>(bench.companies.records.size()) / groups;
  EXPECT_NEAR(records_per_group, 4.3, 0.6);  // paper: 868K / 200K = 4.34

  EXPECT_LE(bench.companies.records.NumSources(), 5u);
  EXPECT_GE(bench.companies.records.NumSources(), 4u);

  // Securities exist and reference valid issuers.
  EXPECT_GT(bench.securities.records.size(), bench.companies.records.size() / 2);
  for (const auto& rec : bench.securities.records.records()) {
    ASSERT_TRUE(rec.Has("issuer_ref"));
    int64_t issuer = std::atoll(std::string(rec.Get("issuer_ref")).c_str());
    ASSERT_GE(issuer, 0);
    ASSERT_LT(static_cast<size_t>(issuer), bench.companies.records.size());
    // Issuer record must be from the same data source.
    EXPECT_EQ(bench.companies.records.at(static_cast<RecordId>(issuer)).source(),
              rec.source());
  }
}

TEST(FinancialGenTest, GroupsNeverExceedSourceCountWithoutEvents) {
  SyntheticConfig config = SmallConfig(17);
  config.artifacts.p_acquisition = 0.0;  // acquisition chains merge groups
  FinancialGenerator gen(config);
  FinancialBenchmark bench = gen.Generate();
  // A company group has at most one record per source.
  for (const auto& [e, members] : bench.companies.truth.Groups()) {
    EXPECT_LE(members.size(), 5u);
    std::set<SourceId> sources;
    for (RecordId r : members) {
      EXPECT_TRUE(sources.insert(bench.companies.records.at(r).source()).second)
          << "two records of entity " << e << " share a source";
    }
  }
}

TEST(FinancialGenTest, AcquisitionsMergeEntities) {
  SyntheticConfig config = SmallConfig(23);
  config.artifacts.p_acquisition = 0.2;  // force plenty of events
  FinancialGenerator gen(config);
  FinancialBenchmark bench = gen.Generate();

  // Some groups must be bigger than the per-source maximum of 5, which only
  // acquisitions can produce.
  size_t merged_groups = 0;
  for (const auto& [e, members] : bench.companies.truth.Groups()) {
    if (members.size() > 5) ++merged_groups;
  }
  EXPECT_GT(merged_groups, 0u);

  // And acquisition records carry the metadata flag.
  size_t flagged = 0;
  for (const auto& rec : bench.companies.records.records()) {
    if (rec.Get("_event") == "acquisition") ++flagged;
  }
  EXPECT_GT(flagged, 0u);
}

TEST(FinancialGenTest, MergersCreateIdOverlapNonMatches) {
  SyntheticConfig config = SmallConfig(29);
  config.artifacts.p_merger = 0.25;
  config.artifacts.p_acquisition = 0.0;
  FinancialGenerator gen(config);
  FinancialBenchmark bench = gen.Generate();

  // Find security record pairs sharing an identifier but labelled
  // non-match: the merger-induced false ID overlap of Figure 2.
  std::unordered_map<std::string, std::vector<RecordId>> by_isin;
  for (size_t i = 0; i < bench.securities.records.size(); ++i) {
    const auto& rec = bench.securities.records.at(static_cast<RecordId>(i));
    for (const auto& isin : rec.GetMulti("isin")) {
      by_isin[isin].push_back(static_cast<RecordId>(i));
    }
  }
  size_t false_overlaps = 0;
  for (const auto& [isin, holders] : by_isin) {
    for (size_t i = 0; i < holders.size(); ++i) {
      for (size_t j = i + 1; j < holders.size(); ++j) {
        if (!bench.securities.truth.IsMatch(holders[i], holders[j])) {
          ++false_overlaps;
        }
      }
    }
  }
  EXPECT_GT(false_overlaps, 0u);
}

TEST(FinancialGenTest, NoIdOverlapGroupsHaveDistinctIds) {
  SyntheticConfig config = SmallConfig(31);
  config.artifacts.p_no_id_overlaps = 1.0;  // every group affected
  config.artifacts.p_acquisition = 0.0;
  config.artifacts.p_merger = 0.0;
  config.artifacts.p_multiple_ids = 0.0;
  FinancialGenerator gen(config);
  FinancialBenchmark bench = gen.Generate();

  std::unordered_set<std::string> seen;
  for (const auto& rec : bench.securities.records.records()) {
    for (const auto& isin : rec.GetMulti("isin")) {
      EXPECT_TRUE(seen.insert(isin).second)
          << "identifier " << isin << " shared despite NoIdOverlaps";
    }
  }
}

TEST(FinancialGenTest, RealisticSubsetIsEasier) {
  SyntheticConfig real_config = RealisticSubsetConfig(41, 300);
  EXPECT_EQ(real_config.num_sources, 8);
  EXPECT_LT(real_config.artifacts.p_acquisition,
            SyntheticConfig().artifacts.p_acquisition);
  FinancialGenerator gen(real_config);
  FinancialBenchmark bench = gen.Generate();
  EXPECT_GT(bench.companies.records.size(), 300u);
}

TEST(WdcGenTest, HeterogeneousGroupSizes) {
  WdcConfig config;
  config.num_entities = 400;
  WdcProductsGenerator gen(config);
  Dataset products = gen.Generate();
  std::set<size_t> sizes;
  for (const auto& [e, members] : products.truth.Groups()) {
    sizes.insert(members.size());
  }
  EXPECT_GE(sizes.size(), 4u) << "group sizes should vary widely";
  EXPECT_EQ(*sizes.begin(), 1u) << "singletons expected";
}

TEST(WdcGenTest, CornerCasesShareTokens) {
  WdcConfig config;
  config.num_entities = 200;
  config.corner_case_frac = 1.0;
  WdcProductsGenerator gen(config);
  Dataset products = gen.Generate();

  // With 100% corner cases nearly every entity shares brand+family tokens
  // with some other entity: count cross-entity title token overlaps.
  auto groups = products.truth.Groups();
  std::vector<std::string> one_title_per_entity;
  for (const auto& [e, members] : groups) {
    one_title_per_entity.emplace_back(
        products.records.at(members[0]).Get("title"));
  }
  size_t overlapping = 0;
  for (size_t i = 0; i + 1 < one_title_per_entity.size() && i < 50; ++i) {
    for (size_t j = i + 1; j < one_title_per_entity.size() && j < 50; ++j) {
      auto ta = TokenizeWords(one_title_per_entity[i]);
      auto tb = TokenizeWords(one_title_per_entity[j]);
      if (TokenOverlapCount(ta, tb) >= 2) {
        ++overlapping;
      }
    }
  }
  EXPECT_GT(overlapping, 0u);
}

TEST(WdcGenTest, RecordsHaveTitles) {
  WdcProductsGenerator gen(WdcConfig{});
  Dataset products = gen.Generate();
  ASSERT_GT(products.records.size(), 100u);
  for (const auto& rec : products.records.records()) {
    EXPECT_TRUE(rec.Has("title"));
    EXPECT_EQ(rec.kind(), RecordKind::kProduct);
  }
}

}  // namespace
}  // namespace gralmatch
