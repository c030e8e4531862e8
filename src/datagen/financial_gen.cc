#include "datagen/financial_gen.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"
#include "common/union_find.h"
#include "datagen/identifiers.h"
#include "text/corporate.h"
#include "text/normalize.h"

namespace gralmatch {

namespace {

std::string TitleCase(std::string_view lower) {
  std::string out(lower);
  bool at_start = true;
  for (char& c : out) {
    if (at_start && std::isalpha(static_cast<unsigned char>(c))) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    at_start = (c == ' ');
  }
  return out;
}

/// Abbreviate a word: keep the first letter, drop vowels, cap at 4 chars,
/// add a period ("Platforms" -> "Pltf.").
std::string AbbreviateWord(std::string_view word) {
  if (word.size() <= 3) return std::string(word);
  std::string out;
  out.push_back(word[0]);
  for (size_t i = 1; i < word.size() && out.size() < 4; ++i) {
    char c = static_cast<char>(std::tolower(static_cast<unsigned char>(word[i])));
    if (c != 'a' && c != 'e' && c != 'i' && c != 'o' && c != 'u') {
      out.push_back(word[i]);
    }
  }
  out.push_back('.');
  return out;
}

/// Per-source name variant. `variant` is the per-source selector drawn at
/// draft time; `term` is the InsertCorporateTerm artifact's choice.
std::string CompanyNameVariant(const BaseCompany& base, int variant,
                               const std::string& term, Rng* rng) {
  std::string name = base.name;
  switch (variant) {
    case 0:
      break;  // base name unchanged
    case 1:   // strip corporate terms
      name = TitleCase(CanonicalCompanyName(name));
      break;
    case 2: {  // replace/append a (different) corporate term
      std::string canon = TitleCase(CanonicalCompanyName(name));
      name = canon + " " + TitleCase(rng->Choice(CorporateTerms()));
      break;
    }
    case 3: {  // fuse or split the stem
      std::string fused = TitleCase(base.stem_prefix) + base.stem_suffix;
      std::string split =
          TitleCase(base.stem_prefix) + " " + TitleCase(base.stem_suffix);
      std::string canon = CanonicalCompanyName(name);
      if (canon.find(' ') == std::string::npos) {
        name = ReplaceAll(name, TitleCase(fused), split);
        name = ReplaceAll(name, fused, split);
      } else {
        name = ReplaceAll(name, split, fused);
      }
      break;
    }
    case 4: {  // abbreviate the last non-corporate word
      auto words = SplitWhitespace(name);
      for (size_t i = words.size(); i-- > 0;) {
        if (!IsCorporateTerm(words[i])) {
          words[i] = AbbreviateWord(words[i]);
          break;
        }
      }
      name = Join(words, " ");
      break;
    }
    case 5:  // vendor shouting style
      name = ToUpper(name);
      break;
    case 6:  // ticker-style mention
      if (!base.ticker.empty()) name = base.ticker;
      break;
    default:
      break;
  }
  if (!term.empty()) {
    // InsertCorporateTerm: the term shows up in all mentions of the name.
    name += " " + TitleCase(term);
  }
  return name;
}

/// Draw a per-source variant id with realistic frequencies (base name most
/// common, ticker-only rare).
int DrawNameVariant(Rng* rng) {
  static const std::vector<double> kWeights = {8, 3, 3, 2, 2, 1, 0.5};
  return static_cast<int>(rng->WeightedChoice(kWeights));
}

struct SecurityIdChoice {
  std::string isin, cusip, sedol, valor;
};

/// Sample which identifier values a materialized security record shows.
SecurityIdChoice SampleRecordIds(const SecurityDraft& sec, double p_present,
                                 Rng* rng) {
  SecurityIdChoice out;
  if (sec.no_id_overlaps) {
    // Fresh identifiers per record: no value is shared across records.
    out.isin = GenerateIsin(rng);
    if (!sec.cusips.empty()) out.cusip = GenerateCusip(rng);
    if (!sec.sedols.empty()) out.sedol = GenerateSedol(rng);
    return out;
  }
  auto pick = [&](const std::vector<std::string>& vals) -> std::string {
    if (vals.empty() || !rng->Bernoulli(p_present)) return "";
    return vals[rng->Uniform(vals.size())];
  };
  out.isin = pick(sec.isins);
  out.cusip = pick(sec.cusips);
  out.sedol = pick(sec.sedols);
  out.valor = pick(sec.valors);
  return out;
}

}  // namespace

FinancialGenerator::FinancialGenerator(SyntheticConfig config)
    : config_(std::move(config)) {}

FinancialBenchmark FinancialGenerator::Generate() {
  Rng rng(config_.seed);
  CompanyNameModel names(config_.seed ^ 0xC0FFEEULL);
  Paraphraser paraphraser;
  const size_t n = config_.num_groups;
  const int num_sources = config_.num_sources;

  // ---- Phase 1: draft groups -------------------------------------------
  std::vector<GroupDraft> groups(n);
  EntityId next_sec_entity = 0;
  for (size_t i = 0; i < n; ++i) {
    GroupDraft& g = groups[i];
    g.company_entity = static_cast<EntityId>(i);
    g.base = names.Generate(i);

    // Group sizes weighted toward 4-5 records (paper: avg 7.5 matches per
    // entity, i.e. groups of ~4.3 records).
    static const std::vector<double> kSizeWeights = {1, 3, 3};
    size_t n_src = std::min<size_t>(
        static_cast<size_t>(num_sources), 3 + rng.WeightedChoice(kSizeWeights));
    std::vector<SourceId> all_sources(static_cast<size_t>(num_sources));
    for (size_t s = 0; s < all_sources.size(); ++s) {
      all_sources[s] = static_cast<SourceId>(s);
    }
    rng.Shuffle(&all_sources);
    g.sources.assign(all_sources.begin(),
                     all_sources.begin() + static_cast<long>(n_src));
    std::sort(g.sources.begin(), g.sources.end());

    g.name_variant.resize(g.sources.size());
    for (auto& v : g.name_variant) v = DrawNameVariant(&rng);
    g.use_acronym.assign(g.sources.size(), false);

    // Primary security (+ occasional second share class).
    size_t num_primary = rng.Bernoulli(0.15) ? 2 : 1;
    for (size_t k = 0; k < num_primary; ++k) {
      SecurityDraft sec;
      sec.entity = next_sec_entity++;
      sec.type = k == 0 ? (rng.Bernoulli(0.12) ? SecurityType::kAdr
                                               : SecurityType::kCommonStock)
                        : SecurityType::kPreferredStock;
      std::string canon = TitleCase(CanonicalCompanyName(g.base.name));
      sec.name = canon.empty()
                     ? std::string(SecurityTypeName(sec.type))
                     : canon + " " + SecurityTypeName(sec.type);
      sec.isins.push_back(GenerateIsin(&rng));
      if (rng.Bernoulli(0.7)) sec.cusips.push_back(GenerateCusip(&rng));
      if (rng.Bernoulli(0.5)) sec.sedols.push_back(GenerateSedol(&rng));
      if (rng.Bernoulli(0.3)) sec.valors.push_back(GenerateValor(&rng));
      for (size_t s = 0; s < g.sources.size(); ++s) {
        if (rng.Bernoulli(config_.p_security_per_source)) {
          sec.present_in.push_back(s);
        }
      }
      if (sec.present_in.empty()) {
        sec.present_in.push_back(rng.Uniform(g.sources.size()));
      }
      g.securities.push_back(std::move(sec));
    }
  }

  // ---- Phase 2: artifacts (sequential random combination, §3.2) ---------
  UnionFind company_merge(n);  // acquisition-driven entity merges
  const ArtifactConfig& a = config_.artifacts;
  for (size_t i = 0; i < n; ++i) {
    GroupDraft& g = groups[i];
    if (rng.Bernoulli(a.p_acronym_name)) {
      ApplyAcronymName(&g, &rng);
    }
    if (rng.Bernoulli(a.p_insert_corporate_term)) {
      ApplyInsertCorporateTerm(&g, &rng);
    }
    if (rng.Bernoulli(a.p_paraphrase)) {
      ApplyParaphraseAttribute(&g, paraphraser, &rng);
    }
    if (rng.Bernoulli(a.p_multiple_securities)) {
      ApplyMultipleSecurities(&g, &rng, &next_sec_entity);
    }
    if (rng.Bernoulli(a.p_multiple_ids)) {
      ApplyMultipleIds(&g, &rng);
    }
    if (rng.Bernoulli(a.p_no_id_overlaps)) {
      ApplyNoIdOverlaps(&g);
    }
    if (i > 0 && rng.Bernoulli(a.p_acquisition)) {
      size_t j = rng.Uniform(i);  // acquirer: an earlier group
      if (!groups[j].involved_in_merger && !g.involved_in_merger) {
        ApplyAcquisition(&groups[j], &g, &rng);
        g.counterparty = j;
        company_merge.Union(i, j);
      }
    }
    if (i > 0 && rng.Bernoulli(a.p_merger)) {
      size_t j = rng.Uniform(i);
      if (!g.involved_in_acquisition && !groups[j].involved_in_acquisition &&
          !groups[j].involved_in_merger) {
        ApplyMerger(&g, &groups[j], &rng);
        g.counterparty = j;
      }
    }
  }

  // ---- Phase 3: materialization ------------------------------------------
  FinancialBenchmark bench;
  bench.companies.name = "companies";
  bench.securities.name = "securities";

  // Company records; remember per (group, source-index) record id for
  // issuer_ref links.
  std::vector<std::vector<RecordId>> company_record_of(n);
  for (size_t i = 0; i < n; ++i) {
    GroupDraft& g = groups[i];
    company_record_of[i].assign(g.sources.size(), kInvalidRecord);
    for (size_t s = 0; s < g.sources.size(); ++s) {
      // Event overwrite: a recording source displays the counterparty's
      // company attributes.
      const BaseCompany* eff = &g.base;
      bool overwritten = false;
      for (const auto& ow : g.overwrites) {
        if (ow.source_index == s && ow.overwrite_company &&
            g.counterparty != SIZE_MAX) {
          eff = &groups[g.counterparty].base;
          overwritten = true;
          break;
        }
      }

      Record rec(g.sources[s], RecordKind::kCompany);
      std::string name;
      if (g.use_acronym[s]) {
        std::string acro = MakeAcronym(eff->name);
        name = acro.empty() ? eff->name : acro;
      } else {
        name = CompanyNameVariant(*eff, overwritten ? 0 : g.name_variant[s],
                                  g.inserted_corporate_term, &rng);
      }
      rec.Set("name", name);
      if (rng.Bernoulli(0.92)) rec.Set("city", eff->city);
      if (rng.Bernoulli(0.80)) rec.Set("region", eff->region);
      if (rng.Bernoulli(0.92)) rec.Set("country_code", eff->country_code);
      if (!eff->short_description.empty() &&
          rng.Bernoulli(config_.p_description_per_source)) {
        rec.Set("short_description", eff->short_description);
      }
      if (rng.Bernoulli(0.5) && !eff->ticker.empty()) {
        rec.Set("ticker", eff->ticker);
      }
      if (g.involved_in_acquisition) rec.Set("_event", "acquisition");
      if (g.involved_in_merger) rec.Set("_event", "merger");

      RecordId rid = bench.companies.records.Add(std::move(rec));
      company_record_of[i][s] = rid;
      bench.companies.truth.Assign(
          rid, static_cast<EntityId>(company_merge.Find(i)));
    }
  }

  // Security records. Acquisition merges the acquiree's securities into the
  // acquirer's primary security entity; recording sources overwrite ids.
  UnionFind security_merge(static_cast<size_t>(next_sec_entity));
  for (size_t i = 0; i < n; ++i) {
    GroupDraft& g = groups[i];
    if (g.involved_in_acquisition && g.counterparty != SIZE_MAX) {
      const GroupDraft& acq = groups[g.counterparty];
      if (!acq.securities.empty() && !g.securities.empty()) {
        security_merge.Union(static_cast<size_t>(g.securities[0].entity),
                             static_cast<size_t>(acq.securities[0].entity));
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    GroupDraft& g = groups[i];
    for (size_t sec_idx = 0; sec_idx < g.securities.size(); ++sec_idx) {
      const SecurityDraft& sec = g.securities[sec_idx];
      for (size_t s : sec.present_in) {
        Record rec(g.sources[s], RecordKind::kSecurity);

        // Generic names ("Common Stock") on a fraction of records: these can
        // only be matched through their issuer (paper §5.3.1, Issuer Match).
        bool generic = rng.Bernoulli(0.25);
        rec.Set("name", generic ? SecurityTypeName(sec.type) : sec.name);
        rec.Set("type", SecurityTypeName(sec.type));

        // Identifier overwrite from merger/acquisition events (only the
        // group's primary security is affected, like record #21 / #30 of
        // the paper's Figure 2).
        bool ids_overwritten = false;
        if (sec_idx == 0 && g.counterparty != SIZE_MAX) {
          for (const auto& ow : g.overwrites) {
            if (ow.source_index == s && ow.overwrite_security_ids &&
                !groups[g.counterparty].securities.empty()) {
              const SecurityDraft& other = groups[g.counterparty].securities[0];
              SecurityIdChoice ids = SampleRecordIds(
                  other, config_.p_identifier_per_record, &rng);
              if (!ids.isin.empty()) rec.Set("isin", ids.isin);
              if (!ids.cusip.empty()) rec.Set("cusip", ids.cusip);
              if (!ids.sedol.empty()) rec.Set("sedol", ids.sedol);
              if (!ids.valor.empty()) rec.Set("valor", ids.valor);
              ids_overwritten = true;
              break;
            }
          }
        }
        if (!ids_overwritten) {
          SecurityIdChoice ids =
              SampleRecordIds(sec, config_.p_identifier_per_record, &rng);
          if (!ids.isin.empty()) rec.Set("isin", ids.isin);
          if (!ids.cusip.empty()) rec.Set("cusip", ids.cusip);
          if (!ids.sedol.empty()) rec.Set("sedol", ids.sedol);
          if (!ids.valor.empty()) rec.Set("valor", ids.valor);
        }

        RecordId issuer = company_record_of[i][s];
        rec.Set("issuer_ref", std::to_string(issuer));
        if (g.involved_in_acquisition) rec.Set("_event", "acquisition");
        if (g.involved_in_merger) rec.Set("_event", "merger");

        RecordId rid = bench.securities.records.Add(std::move(rec));
        bench.securities.truth.Assign(
            rid, static_cast<EntityId>(
                     security_merge.Find(static_cast<size_t>(sec.entity))));
      }
    }
  }

  bench.securities.issuer_records = bench.companies.records;
  bench.securities.issuer_truth = bench.companies.truth;
  return bench;
}

SyntheticConfig RealisticSubsetConfig(uint64_t seed, size_t num_groups) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_groups = num_groups;
  config.num_sources = 8;
  // The labelled real subset is dominated by groups matchable through
  // identifier codes: drift events and identifier pathologies are rare.
  config.artifacts.p_acronym_name = 0.02;
  config.artifacts.p_insert_corporate_term = 0.10;
  config.artifacts.p_acquisition = 0.008;
  config.artifacts.p_merger = 0.008;
  config.artifacts.p_paraphrase = 0.10;
  config.artifacts.p_multiple_ids = 0.03;
  config.artifacts.p_no_id_overlaps = 0.015;
  config.artifacts.p_multiple_securities = 0.30;
  config.p_description_per_source = 0.5;
  config.p_identifier_per_record = 0.95;
  return config;
}

}  // namespace gralmatch
