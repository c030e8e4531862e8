#ifndef GRALMATCH_DATAGEN_IDENTIFIERS_H_
#define GRALMATCH_DATAGEN_IDENTIFIERS_H_

/// \file identifiers.h
/// Generators and validators for the (inter)national security identifier
/// standards referenced by the paper: ISIN (ISO 6166), CUSIP, SEDOL and
/// VALOR. Generated identifiers carry correct check digits so that
/// validator round-trips hold (property-tested).

#include <string>
#include <string_view>

#include "common/rng.h"

namespace gralmatch {

/// 12-char ISIN: 2-letter country prefix + 9 alphanumerics + Luhn check digit.
std::string GenerateIsin(Rng* rng, std::string_view country = "");

/// True iff `isin` is structurally valid including its check digit.
bool IsValidIsin(std::string_view isin);

/// 9-char CUSIP: 8 alphanumerics + modulus-10 double-add-double check digit.
std::string GenerateCusip(Rng* rng);

/// True iff `cusip` is structurally valid including its check digit.
bool IsValidCusip(std::string_view cusip);

/// 7-char SEDOL: 6 alphanumerics (no vowels) + weighted check digit.
std::string GenerateSedol(Rng* rng);

/// True iff `sedol` is structurally valid including its check digit.
bool IsValidSedol(std::string_view sedol);

/// Swiss VALOR number: 6-9 digits, no check digit.
std::string GenerateValor(Rng* rng);

/// True iff `valor` is 6-9 digits.
bool IsValidValor(std::string_view valor);

}  // namespace gralmatch

#endif  // GRALMATCH_DATAGEN_IDENTIFIERS_H_
