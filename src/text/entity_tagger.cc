#include "text/entity_tagger.h"

#include <algorithm>
#include <cmath>

#include "util/hotpath.h"
#include "util/logging.h"
#include "util/profile_tag.h"

namespace surveyor {

EntityTagger::EntityTagger(const KnowledgeBase* kb, EntityTaggerOptions options)
    : kb_(kb), options_(options), nodes_(1) {
  SURVEYOR_CHECK(kb_ != nullptr);
  const size_t max_words =
      static_cast<size_t>(std::max(options_.max_mention_tokens, 0));
  for (const std::string& alias : kb_->AllAliases()) {
    // A mention spans at most max_mention_tokens tokens, so a longer
    // alias never matches.
    const std::vector<std::string> words = Split(alias, ' ');
    if (words.size() > max_words) continue;
    uint32_t node = 0;
    for (const std::string& word : words) {
      const uint32_t next_id = static_cast<uint32_t>(token_ids_.size());
      const uint32_t token_id = token_ids_.emplace(word, next_id).first->second;
      const uint32_t next_node = static_cast<uint32_t>(nodes_.size());
      const auto [edge, added] =
          edges_.emplace(EdgeKey(node, token_id), next_node);
      if (added) nodes_.emplace_back();
      node = edge->second;
    }
    nodes_[node].alias = alias;
    nodes_[node].candidates = kb_->CandidatesForAlias(alias);
  }
  type_cues_.resize(kb_->num_types());
  for (TypeId t = 0; t < kb_->num_types(); ++t) {
    const std::string& name = kb_->TypeName(t);
    type_cues_[t].push_back(name);
    type_cues_[t].push_back(Lexicon::Pluralize(name));
  }
}

uint32_t EntityTagger::Child(uint32_t node, uint32_t token_id) const {
  const auto it = edges_.find(EdgeKey(node, token_id));
  return it == edges_.end() ? 0 : it->second;
}

SURVEYOR_HOT_FUNCTION
EntityId EntityTagger::Disambiguate(const std::vector<EntityId>& candidates,
                                    const std::vector<Token>& tokens) const {
  if (candidates.empty()) return kInvalidEntity;
  if (candidates.size() == 1) return candidates[0];

  double best = -1e300, second = -1e300;
  EntityId best_entity = kInvalidEntity;
  for (EntityId id : candidates) {
    const Entity& entity = kb_->entity(id);
    double score = std::log(std::max(entity.popularity, 1e-12));
    const std::vector<std::string>& cues =
        type_cues_[entity.most_notable_type];
    const bool cued =
        std::any_of(tokens.begin(), tokens.end(), [&cues](const Token& t) {
          return std::find(cues.begin(), cues.end(), t.text) != cues.end();
        });
    if (cued) score += options_.type_cue_bonus;
    if (score > best) {
      second = best;
      best = score;
      best_entity = id;
    } else if (score > second) {
      second = score;
    }
  }
  if (best - second < options_.min_disambiguation_margin) {
    return kInvalidEntity;  // too ambiguous; Section 2 discards such names
  }
  return best_entity;
}

SURVEYOR_HOT_FUNCTION
std::vector<ParseUnit> EntityTagger::Tag(
    const std::vector<Token>& tokens) const {
  SURVEYOR_PROFILE_SCOPE("match");
  std::vector<ParseUnit> units;
  units.reserve(tokens.size());
  size_t i = 0;
  while (i < tokens.size()) {
    // Walk the trie from position i, one token-id probe per token. The
    // walk stops at punctuation, at a token no alias contains, or where
    // no alias continues (the trie is at most max_mention_tokens deep);
    // the deepest node an alias ends at is the longest match.
    const Node* match = nullptr;
    size_t match_len = 0;
    uint32_t node = 0;
    for (size_t k = i; k < tokens.size(); ++k) {
      if (tokens[k].pos == Pos::kPunctuation) break;
      const auto id = token_ids_.find(std::string_view(tokens[k].text));
      if (id == token_ids_.end()) break;
      node = Child(node, id->second);
      if (node == 0) break;
      if (!nodes_[node].alias.empty()) {
        match = &nodes_[node];
        match_len = k - i + 1;
      }
    }
    ParseUnit& unit = units.emplace_back();
    if (match == nullptr) {
      unit.text = tokens[i].text;
      unit.pos = tokens[i].pos;
      ++i;
      continue;
    }
    // A known alias too ambiguous to resolve is still chunked as one
    // untagged noun so parsing stays sane; downstream sees no entity.
    unit.text = match->alias;
    unit.pos = Pos::kNoun;
    unit.entity = Disambiguate(match->candidates, tokens);
    i += match_len;
  }
  return units;
}

}  // namespace surveyor
