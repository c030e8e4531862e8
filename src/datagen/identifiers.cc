#include "datagen/identifiers.h"

#include <cctype>
#include <vector>

namespace gralmatch {

namespace {

const char kAlnum[] = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const char kDigits[] = "0123456789";
// SEDOL alphabet excludes vowels.
const char kSedolAlphabet[] = "0123456789BCDFGHJKLMNPQRSTVWXYZ";
const char* kIsinCountries[] = {"US", "GB", "CH", "DE", "FR", "JP", "CA", "NL"};

int CharValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'Z') return c - 'A' + 10;
  return -1;
}

/// Luhn "double-add-double" over the digit expansion of an alphanumeric
/// payload (letters expand to two digits), as used by both ISIN and CUSIP
/// (CUSIP applies it to per-character values instead of the expansion; see
/// CusipCheckDigit below).
int IsinCheckDigit(std::string_view payload) {
  std::vector<int> digits;
  for (char c : payload) {
    int v = CharValue(c);
    if (v < 0) return -1;
    if (v >= 10) {
      digits.push_back(v / 10);
      digits.push_back(v % 10);
    } else {
      digits.push_back(v);
    }
  }
  // Double every other digit starting from the rightmost.
  int sum = 0;
  bool dbl = true;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    int d = *it;
    if (dbl) {
      d *= 2;
      if (d > 9) d -= 9;
    }
    sum += d;
    dbl = !dbl;
  }
  return (10 - sum % 10) % 10;
}

int CusipCheckDigit(std::string_view payload) {
  int sum = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    int v = CharValue(payload[i]);
    if (v < 0) return -1;
    if (i % 2 == 1) v *= 2;
    sum += v / 10 + v % 10;
  }
  return (10 - sum % 10) % 10;
}

const int kSedolWeights[] = {1, 3, 1, 7, 3, 9};

int SedolCheckDigit(std::string_view payload) {
  int sum = 0;
  for (size_t i = 0; i < 6; ++i) {
    int v = CharValue(payload[i]);
    if (v < 0) return -1;
    sum += v * kSedolWeights[i];
  }
  return (10 - sum % 10) % 10;
}

}  // namespace

std::string GenerateIsin(Rng* rng, std::string_view country) {
  std::string out;
  if (country.size() == 2) {
    out = std::string(country);
  } else {
    out = kIsinCountries[rng->Uniform(std::size(kIsinCountries))];
  }
  for (int i = 0; i < 9; ++i) out.push_back(kAlnum[rng->Uniform(36)]);
  out.push_back(static_cast<char>('0' + IsinCheckDigit(out)));
  return out;
}

bool IsValidIsin(std::string_view isin) {
  if (isin.size() != 12) return false;
  if (!std::isupper(static_cast<unsigned char>(isin[0])) ||
      !std::isupper(static_cast<unsigned char>(isin[1]))) {
    return false;
  }
  int check = IsinCheckDigit(isin.substr(0, 11));
  return check >= 0 && isin[11] == static_cast<char>('0' + check);
}

std::string GenerateCusip(Rng* rng) {
  std::string out;
  for (int i = 0; i < 8; ++i) out.push_back(kAlnum[rng->Uniform(36)]);
  out.push_back(static_cast<char>('0' + CusipCheckDigit(out)));
  return out;
}

bool IsValidCusip(std::string_view cusip) {
  if (cusip.size() != 9) return false;
  int check = CusipCheckDigit(cusip.substr(0, 8));
  return check >= 0 && cusip[8] == static_cast<char>('0' + check);
}

std::string GenerateSedol(Rng* rng) {
  std::string out;
  for (int i = 0; i < 6; ++i) {
    out.push_back(kSedolAlphabet[rng->Uniform(std::size(kSedolAlphabet) - 1)]);
  }
  out.push_back(static_cast<char>('0' + SedolCheckDigit(out)));
  return out;
}

bool IsValidSedol(std::string_view sedol) {
  if (sedol.size() != 7) return false;
  for (char c : sedol.substr(0, 6)) {
    if (c == 'A' || c == 'E' || c == 'I' || c == 'O' || c == 'U') return false;
    if (CharValue(c) < 0) return false;
  }
  int check = SedolCheckDigit(sedol.substr(0, 6));
  return check >= 0 && sedol[6] == static_cast<char>('0' + check);
}

std::string GenerateValor(Rng* rng) {
  size_t len = 6 + rng->Uniform(4);
  std::string out;
  out.push_back(kDigits[1 + rng->Uniform(9)]);  // no leading zero
  for (size_t i = 1; i < len; ++i) out.push_back(kDigits[rng->Uniform(10)]);
  return out;
}

bool IsValidValor(std::string_view valor) {
  if (valor.size() < 6 || valor.size() > 9) return false;
  for (char c : valor) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace gralmatch
