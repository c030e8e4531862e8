#include "text/vocab.h"

#include <algorithm>
#include <fstream>

#include "text/normalize.h"

namespace gralmatch {

int32_t SubwordVocab::Intern(const std::string& piece) {
  auto it = token_to_id_.find(piece);
  if (it != token_to_id_.end()) return it->second;
  int32_t id = next_id_++;
  token_to_id_.emplace(piece, id);
  id_to_token_.push_back(piece);
  return id;
}

void SubwordVocab::Train(const std::vector<std::string>& docs, size_t max_words) {
  std::unordered_map<std::string, uint64_t> word_freq;
  std::unordered_map<std::string, uint64_t> piece_freq;
  for (const auto& doc : docs) {
    for (const auto& w : TokenizeWords(doc)) {
      ++word_freq[w];
      // Collect candidate continuation pieces: char 1..3-grams.
      for (size_t n = 1; n <= max_piece_len_; ++n) {
        if (w.size() < n) break;
        for (size_t i = 0; i + n <= w.size(); ++i) {
          ++piece_freq[w.substr(i, n)];
        }
      }
    }
  }

  // Most frequent whole words first (ties broken lexicographically for
  // determinism).
  std::vector<std::pair<std::string, uint64_t>> words(word_freq.begin(),
                                                      word_freq.end());
  std::sort(words.begin(), words.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (words.size() > max_words) words.resize(max_words);
  for (const auto& [w, f] : words) Intern(w);

  // All single characters always become pieces so decomposition never fails;
  // longer pieces only if seen at least twice.
  std::vector<std::pair<std::string, uint64_t>> pieces(piece_freq.begin(),
                                                       piece_freq.end());
  std::sort(pieces.begin(), pieces.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  for (const auto& [p, f] : pieces) {
    if (p.size() == 1 || f >= 2) Intern("##" + p);
  }
}

void SubwordVocab::EncodeWord(std::string_view word,
                              std::vector<int32_t>* out) const {
  std::string w(word);
  auto it = token_to_id_.find(w);
  if (it != token_to_id_.end()) {
    out->push_back(it->second);
    return;
  }
  // Greedy longest-match decomposition into "##" pieces.
  size_t pos = 0;
  while (pos < w.size()) {
    bool matched = false;
    size_t take = std::min(max_piece_len_, w.size() - pos);
    for (size_t n = take; n >= 1; --n) {
      auto pit = token_to_id_.find("##" + w.substr(pos, n));
      if (pit != token_to_id_.end()) {
        out->push_back(pit->second);
        pos += n;
        matched = true;
        break;
      }
    }
    if (!matched) {
      out->push_back(SpecialTokens::kUnk);
      ++pos;
    }
  }
}

std::vector<int32_t> SubwordVocab::EncodeText(std::string_view text) const {
  std::vector<int32_t> out;
  for (const auto& w : TokenizeWords(text)) EncodeWord(w, &out);
  return out;
}

Status SubwordVocab::Save(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open for writing: " + path);
  for (const auto& tok : id_to_token_) file << tok << '\n';
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status SubwordVocab::Load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open for reading: " + path);
  token_to_id_.clear();
  id_to_token_.clear();
  next_id_ = SpecialTokens::kFirstFree;
  std::string line;
  while (std::getline(file, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    Intern(line);
  }
  return Status::OK();
}

std::string SubwordVocab::TokenText(int32_t id) const {
  switch (id) {
    case SpecialTokens::kPad: return "[PAD]";
    case SpecialTokens::kUnk: return "[UNK]";
    case SpecialTokens::kCls: return "[CLS]";
    case SpecialTokens::kSep: return "[SEP]";
    case SpecialTokens::kCol: return "[COL]";
    case SpecialTokens::kVal: return "[VAL]";
    default: break;
  }
  size_t idx = static_cast<size_t>(id - SpecialTokens::kFirstFree);
  if (idx < id_to_token_.size()) return id_to_token_[idx];
  return "<unk#>";
}

}  // namespace gralmatch
