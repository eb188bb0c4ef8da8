#include "text/lexicon.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace surveyor {
namespace {

struct ClosedClassEntry {
  const char* word;
  Pos pos;
};

constexpr ClosedClassEntry kClosedClass[] = {
    // to-be forms
    {"is", Pos::kToBe},
    {"are", Pos::kToBe},
    {"was", Pos::kToBe},
    {"were", Pos::kToBe},
    {"be", Pos::kToBe},
    {"been", Pos::kToBe},
    // other copular verbs (the "copula class" of Appendix B versions 1-2)
    {"seems", Pos::kCopulaOther},
    {"seem", Pos::kCopulaOther},
    {"seemed", Pos::kCopulaOther},
    {"looks", Pos::kCopulaOther},
    {"look", Pos::kCopulaOther},
    {"looked", Pos::kCopulaOther},
    {"remains", Pos::kCopulaOther},
    {"remain", Pos::kCopulaOther},
    {"stays", Pos::kCopulaOther},
    {"became", Pos::kCopulaOther},
    {"becomes", Pos::kCopulaOther},
    {"feels", Pos::kCopulaOther},
    // clause-embedding opinion verbs
    {"think", Pos::kOpinionVerb},
    {"thinks", Pos::kOpinionVerb},
    {"thought", Pos::kOpinionVerb},
    {"believe", Pos::kOpinionVerb},
    {"believes", Pos::kOpinionVerb},
    {"say", Pos::kOpinionVerb},
    {"says", Pos::kOpinionVerb},
    {"said", Pos::kOpinionVerb},
    {"doubt", Pos::kOpinionVerb},
    {"doubts", Pos::kOpinionVerb},
    {"agree", Pos::kOpinionVerb},
    {"feel", Pos::kOpinionVerb},
    // small-clause verbs ("I find kittens cute")
    {"find", Pos::kSmallClauseVerb},
    {"finds", Pos::kSmallClauseVerb},
    {"found", Pos::kSmallClauseVerb},
    {"consider", Pos::kSmallClauseVerb},
    {"considers", Pos::kSmallClauseVerb},
    {"call", Pos::kSmallClauseVerb},
    {"calls", Pos::kSmallClauseVerb},
    // auxiliaries
    {"do", Pos::kAux},
    {"does", Pos::kAux},
    {"did", Pos::kAux},
    {"would", Pos::kAux},
    {"could", Pos::kAux},
    {"might", Pos::kAux},
    // negators
    {"not", Pos::kNegation},
    {"n't", Pos::kNegation},
    {"never", Pos::kNegation},
    {"hardly", Pos::kNegation},
    // determiners
    {"a", Pos::kDeterminer},
    {"an", Pos::kDeterminer},
    {"the", Pos::kDeterminer},
    {"this", Pos::kDeterminer},
    {"these", Pos::kDeterminer},
    // prepositions
    {"for", Pos::kPreposition},
    {"in", Pos::kPreposition},
    {"of", Pos::kPreposition},
    {"at", Pos::kPreposition},
    {"on", Pos::kPreposition},
    {"near", Pos::kPreposition},
    {"with", Pos::kPreposition},
    {"from", Pos::kPreposition},
    {"by", Pos::kPreposition},
    {"during", Pos::kPreposition},
    {"to", Pos::kPreposition},
    // conjunctions
    {"and", Pos::kConjunction},
    {"or", Pos::kConjunction},
    {"but", Pos::kConjunction},
    // complementizer
    {"that", Pos::kComplementizer},
    // pronouns
    {"i", Pos::kPronoun},
    {"you", Pos::kPronoun},
    {"we", Pos::kPronoun},
    {"they", Pos::kPronoun},
    {"he", Pos::kPronoun},
    {"she", Pos::kPronoun},
    {"it", Pos::kPronoun},
    {"everyone", Pos::kPronoun},
    {"people", Pos::kPronoun},
    // common intensity adverbs (open-class adverbs can still be added)
    {"very", Pos::kAdverb},
    {"really", Pos::kAdverb},
    {"quite", Pos::kAdverb},
    {"extremely", Pos::kAdverb},
    {"incredibly", Pos::kAdverb},
    {"so", Pos::kAdverb},
    {"rather", Pos::kAdverb},
    {"somewhat", Pos::kAdverb},
    {"truly", Pos::kAdverb},
};

// The probe key for `word`: keys are stored lower-cased and the tokenizer
// already lower-cases every token, so the word itself unless it has an
// ASCII upper-case byte, in which case its lower-cased copy in `lowered`.
std::string_view LowerKey(std::string_view word, std::string& lowered) {
  for (const char c : word) {
    if (c >= 'A' && c <= 'Z') return lowered = ToLower(word);
  }
  return word;
}

}  // namespace

Lexicon::Lexicon() {
  for (const auto& entry : kClosedClass) {
    words_.emplace(entry.word, entry.pos);
  }
}

void Lexicon::AddWord(std::string_view word, Pos pos) {
  const std::string key = ToLower(word);
  SURVEYOR_CHECK(!key.empty());
  auto [it, inserted] = words_.emplace(key, pos);
  if (!inserted && it->second != pos) {
    // Closed-class words win; open-class re-registrations with a different
    // POS keep the first registration (stable, deterministic behavior).
    return;
  }
}

std::string Lexicon::AddNounWithPlural(std::string_view singular) {
  AddWord(singular, Pos::kNoun);
  std::string plural = Pluralize(singular);
  AddWord(plural, Pos::kNoun);
  plural_to_singular_.emplace(plural, ToLower(singular));
  return plural;
}

Pos Lexicon::Lookup(std::string_view word) const {
  std::string lowered;
  auto it = words_.find(LowerKey(word, lowered));
  if (it == words_.end()) return Pos::kUnknown;
  return it->second;
}

bool Lexicon::Contains(std::string_view word) const {
  std::string lowered;
  return words_.find(LowerKey(word, lowered)) != words_.end();
}

std::string Lexicon::Pluralize(std::string_view singular) {
  std::string s = ToLower(singular);
  if (s.empty()) return s;
  auto ends_with = [&](std::string_view suffix) {
    return EndsWith(s, suffix);
  };
  if (s.size() >= 2 && s.back() == 'y') {
    const char before = s[s.size() - 2];
    if (before != 'a' && before != 'e' && before != 'i' && before != 'o' &&
        before != 'u') {
      return s.substr(0, s.size() - 1) + "ies";
    }
  }
  if (ends_with("s") || ends_with("x") || ends_with("z") || ends_with("ch") ||
      ends_with("sh")) {
    return s + "es";
  }
  return s + "s";
}

std::vector<std::pair<std::string, Pos>> Lexicon::Words() const {
  std::vector<std::pair<std::string, Pos>> entries;
  entries.reserve(words_.size());
  for (const auto& [word, pos] : words_) entries.emplace_back(word, pos);
  return entries;
}

std::vector<std::pair<std::string, std::string>> Lexicon::PluralMappings()
    const {
  std::vector<std::pair<std::string, std::string>> mappings;
  mappings.reserve(plural_to_singular_.size());
  for (const auto& [plural, singular] : plural_to_singular_) {
    mappings.emplace_back(plural, singular);
  }
  return mappings;
}

std::string Lexicon::Singularize(std::string_view word) const {
  std::string lowered;
  const std::string_view key = LowerKey(word, lowered);
  auto it = plural_to_singular_.find(key);
  if (it == plural_to_singular_.end()) return std::string(key);
  return it->second;
}

}  // namespace surveyor
