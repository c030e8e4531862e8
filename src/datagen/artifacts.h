#ifndef GRALMATCH_DATAGEN_ARTIFACTS_H_
#define GRALMATCH_DATAGEN_ARTIFACTS_H_

/// \file artifacts.h
/// The seven data artifacts of §3.2 of the paper, implemented as composable
/// draft mutations. Multiple artifacts are applied sequentially to a group,
/// so their effects intertwine, as in the paper.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "datagen/drafts.h"
#include "datagen/paraphrase.h"

namespace gralmatch {

/// Per-artifact application probabilities (per record group).
struct ArtifactConfig {
  double p_acronym_name = 0.08;
  double p_insert_corporate_term = 0.20;
  double p_acquisition = 0.03;
  double p_merger = 0.03;
  double p_paraphrase = 0.30;       ///< of groups that carry a description
  double p_multiple_ids = 0.10;
  double p_no_id_overlaps = 0.06;
  double p_multiple_securities = 0.22;
};

/// AcronymName: a random non-empty subset of sources displays the acronym
/// of the company name instead of the name. No-op if the acronym is empty.
void ApplyAcronymName(GroupDraft* group, Rng* rng);

/// InsertCorporateTerm: choose a corporate term inserted into all mentions
/// of the name in a random subset of sources.
void ApplyInsertCorporateTerm(GroupDraft* group, Rng* rng);

/// ParaphraseAttribute: paraphrase the base short description (no-op when
/// the company has none).
void ApplyParaphraseAttribute(GroupDraft* group, const Paraphraser& paraphraser,
                              Rng* rng);

/// MultipleIDs: add a second identifier value of each present standard to a
/// random security of the group; records then sample among the values.
void ApplyMultipleIds(GroupDraft* group, Rng* rng);

/// NoIdOverlaps: mark every security of the group so that materialized
/// records share no identifier values (text-only matchable group).
void ApplyNoIdOverlaps(GroupDraft* group);

/// MultipleSecurities: add 1-2 extra securities (bond / right / unit /
/// preferred) issued by the company. `next_entity` supplies fresh security
/// entity ids.
void ApplyMultipleSecurities(GroupDraft* group, Rng* rng, EntityId* next_entity);

/// CreateCorporateAcquisition: `acquirer` absorbs `acquiree`. A random
/// non-empty subset of the acquiree's sources records the event: their
/// company attributes and primary-security identifiers are overwritten with
/// the acquirer's. Per the paper, ALL records of both groups are matches:
/// the caller must merge the entity ids (the generator does this at
/// materialization via the returned bookkeeping on the drafts).
void ApplyAcquisition(GroupDraft* acquirer, GroupDraft* acquiree, Rng* rng);

/// CreateCorporateMerger: `left` and `right` merge into a new entity. Some
/// of `left`'s sources overwrite part of its security identifiers with
/// `right`'s, but the records are NOT matches (paper §3.2).
void ApplyMerger(GroupDraft* left, GroupDraft* right, Rng* rng);

}  // namespace gralmatch

#endif  // GRALMATCH_DATAGEN_ARTIFACTS_H_
