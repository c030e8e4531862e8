#ifndef GRALMATCH_TEXT_VOCAB_H_
#define GRALMATCH_TEXT_VOCAB_H_

/// \file vocab.h
/// Subword vocabulary for the transformer matcher: frequent whole words plus
/// WordPiece-style greedy longest-match fallback pieces, so that rare company
/// names still decompose into informative fragments instead of a single OOV.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace gralmatch {

/// Reserved token ids.
struct SpecialTokens {
  static constexpr int32_t kPad = 0;
  static constexpr int32_t kUnk = 1;
  static constexpr int32_t kCls = 2;
  static constexpr int32_t kSep = 3;   ///< between the two records of a pair
  static constexpr int32_t kCol = 4;   ///< Ditto-style [COL] tag
  static constexpr int32_t kVal = 5;   ///< Ditto-style [VAL] tag
  static constexpr int32_t kFirstFree = 6;
};

/// \brief Trainable subword vocabulary.
///
/// Train() collects word frequencies from a corpus; the most frequent words
/// become whole-word tokens, and all observed character 2/3-grams become
/// continuation pieces (prefixed "##"). Encode() maps a word to a whole-word
/// id when possible, otherwise greedily decomposes it left-to-right into the
/// longest known pieces.
class SubwordVocab {
 public:
  SubwordVocab() = default;

  /// Build the vocabulary from normalized documents.
  /// \param docs corpus; each entry is tokenized with TokenizeWords.
  /// \param max_words cap on whole-word entries (most frequent first).
  void Train(const std::vector<std::string>& docs, size_t max_words = 8000);

  /// Encode one word into one or more token ids (never empty; emits kUnk
  /// for characters with no known piece).
  void EncodeWord(std::string_view word, std::vector<int32_t>* out) const;

  /// Encode free text: normalize, tokenize, subword-encode each word.
  std::vector<int32_t> EncodeText(std::string_view text) const;

  /// Total number of token ids (including specials).
  int32_t size() const { return next_id_; }

  /// Human-readable token for an id (for debugging; "<unk#>" if unknown).
  std::string TokenText(int32_t id) const;

  bool trained() const { return next_id_ > SpecialTokens::kFirstFree; }

  /// Persist the vocabulary (one token per line, id order).
  Status Save(const std::string& path) const;

  /// Load a vocabulary previously written with Save(), replacing contents.
  Status Load(const std::string& path);

 private:
  int32_t Intern(const std::string& piece);

  std::unordered_map<std::string, int32_t> token_to_id_;
  std::vector<std::string> id_to_token_;
  int32_t next_id_ = SpecialTokens::kFirstFree;
  size_t max_piece_len_ = 3;
};

}  // namespace gralmatch

#endif  // GRALMATCH_TEXT_VOCAB_H_
