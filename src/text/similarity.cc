#include "text/similarity.h"

#include <algorithm>
#include <unordered_set>

#include "text/normalize.h"

namespace gralmatch {
namespace {

/// Contiguous, overlapping character trigrams of `s` (none when s is
/// shorter than three characters).
std::vector<std::string> Trigrams(std::string_view s) {
  std::vector<std::string> out;
  for (size_t i = 0; i + 3 <= s.size(); ++i) out.emplace_back(s.substr(i, 3));
  return out;
}

}  // namespace

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> prev(a.size() + 1), cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

double Jaro(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const size_t match_window =
      std::max<size_t>(1, std::max(a.size(), b.size()) / 2) - 1;
  std::vector<bool> a_matched(a.size(), false), b_matched(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > match_window ? i - match_window : 0;
    size_t hi = std::min(b.size(), i + match_window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  size_t t = 0, k = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[k]) ++k;
    if (a[i] != b[k]) ++t;
    ++k;
  }
  double m = static_cast<double>(matches);
  return (m / a.size() + m / b.size() + (m - t / 2.0) / m) / 3.0;
}

double JaroWinkler(std::string_view a, std::string_view b) {
  double j = Jaro(a, b);
  size_t prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] == b[i]) ++prefix;
    else break;
  }
  return j + 0.1 * static_cast<double>(prefix) * (1.0 - j);
}

double JaccardTokens(const std::vector<std::string>& a,
                     const std::vector<std::string>& b) {
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

size_t TokenOverlapCount(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  std::unordered_set<std::string> sa(a.begin(), a.end());
  std::unordered_set<std::string> sb(b.begin(), b.end());
  size_t inter = 0;
  for (const auto& t : sa) inter += sb.count(t);
  return inter;
}

double TrigramSimilarity(std::string_view a, std::string_view b) {
  std::string na = NormalizeText(a), nb = NormalizeText(b);
  auto ga = Trigrams(na), gb = Trigrams(nb);
  if (ga.empty() && gb.empty()) return na == nb ? 1.0 : 0.0;
  return JaccardTokens(ga, gb);
}

}  // namespace gralmatch
