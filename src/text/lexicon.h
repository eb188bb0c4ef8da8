#ifndef SURVEYOR_TEXT_LEXICON_H_
#define SURVEYOR_TEXT_LEXICON_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "text/token.h"
#include "util/string_util.h"

namespace surveyor {

/// Word → POS dictionary for the rule-based parser.
///
/// Closed-class words (copulas, determiners, negators, prepositions, ...)
/// are built in. Open-class vocabulary (nouns, adjectives, adverbs, verbs)
/// is registered by whoever owns the domain vocabulary — in this repo the
/// corpus world model registers entity names, type nouns, and property
/// adjectives. Out-of-lexicon words default to `Pos::kUnknown` and are
/// treated noun-ishly by the parser, mirroring how a trained tagger falls
/// back on unseen tokens.
class Lexicon {
 public:
  /// Constructs a lexicon preloaded with the closed-class vocabulary.
  Lexicon();

  /// Registers a word under a POS class. Re-registering the same word with
  /// the same class is a no-op; closed-class words cannot be overridden.
  void AddWord(std::string_view word, Pos pos);

  /// Registers a noun together with its plural form (both map to kNoun).
  /// Returns the plural that was registered.
  std::string AddNounWithPlural(std::string_view singular);

  /// Looks up the POS for a word, case-insensitively; kUnknown if absent.
  /// Allocates only when `word` has an upper-case byte.
  Pos Lookup(std::string_view word) const;

  bool Contains(std::string_view word) const;

  /// Heuristic English pluralizer ("city"->"cities", "fox"->"foxes").
  static std::string Pluralize(std::string_view singular);

  /// Maps a plural form back to its singular if the plural was registered
  /// via AddNounWithPlural; otherwise returns the input.
  std::string Singularize(std::string_view word) const;

  size_t size() const { return words_.size(); }

  /// All (word, POS) entries in unspecified order (for serialization).
  std::vector<std::pair<std::string, Pos>> Words() const;

  /// All registered (plural, singular) mappings.
  std::vector<std::pair<std::string, std::string>> PluralMappings() const;

 private:
  std::unordered_map<std::string, Pos, StringHash, std::equal_to<>> words_;
  std::unordered_map<std::string, std::string, StringHash, std::equal_to<>>
      plural_to_singular_;
};

}  // namespace surveyor

#endif  // SURVEYOR_TEXT_LEXICON_H_
