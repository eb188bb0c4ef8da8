#ifndef SURVEYOR_TEXT_ENTITY_TAGGER_H_
#define SURVEYOR_TEXT_ENTITY_TAGGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kb/knowledge_base.h"
#include "text/annotated.h"
#include "text/lexicon.h"
#include "text/token.h"
#include "util/string_util.h"

namespace surveyor {

/// Options controlling mention detection and disambiguation.
struct EntityTaggerOptions {
  /// Longest alias (in tokens) considered for chunking.
  int max_mention_tokens = 4;
  /// Minimum score gap (natural-log scale) between the best and the
  /// second-best candidate required to resolve an ambiguous alias. Below
  /// the gap the mention is left untagged — Section 2 of the paper
  /// discards ambiguous city names the same way.
  double min_disambiguation_margin = 0.5;
  /// Score bonus when the sentence contains a cue word for the candidate's
  /// type (the type noun itself, singular or plural).
  double type_cue_bonus = 4.0;
};

/// Detects mentions of knowledge-base entities in a token stream and
/// resolves ambiguous aliases using type-cue context and entity
/// popularity. Plays the role of the paper's upstream entity tagger with
/// "state-of-the-art means for disambiguation".
class EntityTagger {
 public:
  /// `kb` must outlive the tagger. Compiles the KB's aliases into a trie.
  EntityTagger(const KnowledgeBase* kb, EntityTaggerOptions options = {});

  /// Chunks `tokens` into parse units, tagging resolved entity mentions.
  /// Each position takes the longest alias that starts there and crosses
  /// no punctuation. Unresolved (too-ambiguous) aliases stay as plain
  /// noun chunks.
  std::vector<ParseUnit> Tag(const std::vector<Token>& tokens) const;

 private:
  /// A trie node; the root is node 0. An alias ends at a node iff
  /// `alias` is non-empty.
  struct Node {
    /// The alias spelled by the path to this node ("san francisco").
    std::string alias;
    std::vector<EntityId> candidates;
  };

  /// Picks among an alias's candidates. Two or more are scored by
  /// popularity plus the type-cue bonus when a cue word of the candidate's
  /// type is among `tokens`; kInvalidEntity when the margin is too small.
  EntityId Disambiguate(const std::vector<EntityId>& candidates,
                        const std::vector<Token>& tokens) const;

  /// The child of `node` along the alias token `token_id`, 0 if none.
  uint32_t Child(uint32_t node, uint32_t token_id) const;

  static uint64_t EdgeKey(uint32_t node, uint32_t token_id) {
    return (static_cast<uint64_t>(node) << 32) | token_id;
  }

  const KnowledgeBase* kb_;
  EntityTaggerOptions options_;
  /// Every token that occurs in some alias -> its interned id.
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
      token_ids_;
  std::vector<Node> nodes_;
  /// EdgeKey(parent, token id) -> child node.
  std::unordered_map<uint64_t, uint32_t> edges_;
  /// type id -> cue words (type noun singular + plural).
  std::vector<std::vector<std::string>> type_cues_;
};

}  // namespace surveyor

#endif  // SURVEYOR_TEXT_ENTITY_TAGGER_H_
