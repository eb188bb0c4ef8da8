#include "text/tokenizer.h"

#include <cctype>

#include "util/hotpath.h"
#include "util/profile_tag.h"
#include "util/string_util.h"

namespace surveyor {

namespace {

std::string_view TrimView(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool IsTerminator(char c) { return c == '.' || c == '!' || c == '?'; }

}  // namespace

SURVEYOR_HOT_FUNCTION
std::vector<std::string> SplitSentences(std::string_view text) {
  SURVEYOR_PROFILE_SCOPE("split");
  // Pre-count terminators so the output vector is sized once; sentences
  // are then trimmed views over `text`, copied exactly once each.
  size_t terminators = 0;
  for (const char c : text) {
    if (IsTerminator(c)) ++terminators;
  }
  std::vector<std::string> sentences;
  sentences.reserve(terminators + 1);
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && !IsTerminator(text[i])) continue;
    const std::string_view sentence = TrimView(text.substr(start, i - start));
    if (!sentence.empty()) sentences.emplace_back(sentence);
    start = i + 1;
  }
  return sentences;
}

// SURVEYOR_HOT_BEGIN: EmitWord is an extension of Tokenize's loop body;
// one region so the reserve() in Tokenize covers the pushes here.
namespace {

// Emits `word` (if non-empty) as one or two tokens, expanding "xxxn't".
// Lower-cases at copy time, directly into the token's own buffer (SSO
// for every realistic word), instead of allocating a scratch string.
void EmitWord(std::string_view word, const Lexicon& lexicon,
              std::vector<Token>& tokens) {
  if (word.empty()) return;
  Token& token = tokens.emplace_back();
  token.text.resize(word.size());
  for (size_t i = 0; i < word.size(); ++i) {
    token.text[i] =
        static_cast<char>(std::tolower(static_cast<unsigned char>(word[i])));
  }
  if (EndsWith(token.text, "n't") && token.text.size() > 3) {
    const std::string_view base =
        std::string_view(token.text).substr(0, token.text.size() - 3);
    // "don't" -> "do" + "n't"; "isn't" -> "is" + "n't"; "can't" -> "ca"
    // is not in our vocabulary, so leave unsplittable bases alone.
    if (lexicon.Contains(base)) {
      token.text.resize(base.size());  // shrink never reallocates
      token.pos = lexicon.Lookup(token.text);
      tokens.push_back(Token{"n't", Pos::kNegation});
      return;
    }
  }
  token.pos = lexicon.Lookup(token.text);
}

}  // namespace

std::vector<Token> Tokenize(std::string_view sentence, const Lexicon& lexicon) {
  SURVEYOR_PROFILE_SCOPE("tokenize");
  std::vector<Token> tokens;
  // English words average ~5 chars + separator; round down so the guess
  // rarely over-allocates by more than one doubling.
  tokens.reserve(sentence.size() / 6 + 1);
  size_t word_start = std::string_view::npos;
  for (size_t i = 0; i <= sentence.size(); ++i) {
    const char c = i < sentence.size() ? sentence[i] : ' ';
    const unsigned char uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc) || c == '\'' || c == '-') {
      if (word_start == std::string_view::npos) word_start = i;
      continue;
    }
    if (word_start != std::string_view::npos) {
      EmitWord(sentence.substr(word_start, i - word_start), lexicon, tokens);
      word_start = std::string_view::npos;
    }
    if (c == ',' || c == ';' || c == ':') {
      tokens.push_back(Token{std::string(1, c), Pos::kPunctuation});
    }
    // Any other character (quotes, brackets, stray bytes) is dropped,
    // mirroring the robustness a Web-scale tokenizer needs.
  }
  return tokens;
}
// SURVEYOR_HOT_END

}  // namespace surveyor
