#include "text/entity_tagger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tests/text/text_test_util.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace surveyor {
namespace {

class EntityTaggerTest : public testing::Test {
 protected:
  std::vector<ParseUnit> Tag(const std::string& sentence) {
    EntityTagger tagger(&fixture_.kb);
    return tagger.Tag(Tokenize(sentence, fixture_.lexicon));
  }

  TextFixture fixture_;
};

TEST_F(EntityTaggerTest, ChunksMultiWordMention) {
  const auto units = Tag("san francisco is big");
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].text, "san francisco");
  EXPECT_EQ(units[0].entity, fixture_.sf);
  EXPECT_EQ(units[0].pos, Pos::kNoun);
}

TEST_F(EntityTaggerTest, SingleTokenAlias) {
  const auto units = Tag("sf is big");
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].entity, fixture_.sf);
}

TEST_F(EntityTaggerTest, PluralAliasResolves) {
  const auto units = Tag("snakes are dangerous");
  EXPECT_EQ(units[0].entity, fixture_.snake);
}

TEST_F(EntityTaggerTest, UnknownWordsStayUntagged) {
  const auto units = Tag("zorblax is big");
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].entity, kInvalidEntity);
  EXPECT_EQ(units[0].pos, Pos::kUnknown);
}

TEST_F(EntityTaggerTest, AmbiguousAliasResolvedByPopularity) {
  // "phoenix" is a popular city and an obscure animal: popularity wins.
  const auto units = Tag("phoenix is big");
  EXPECT_EQ(units[0].entity, fixture_.phoenix_city);
}

TEST_F(EntityTaggerTest, AmbiguousAliasResolvedByTypeCue) {
  // The type cue "animal" overrides the popularity prior.
  const auto units = Tag("phoenix is a dangerous animal");
  EXPECT_EQ(units[0].entity, fixture_.phoenix_animal);
}

TEST_F(EntityTaggerTest, TypeCuePluralWorks) {
  const auto units = Tag("phoenix is one of the dangerous animals");
  EXPECT_EQ(units[0].entity, fixture_.phoenix_animal);
}

TEST_F(EntityTaggerTest, TooCloseAmbiguityLeftUnresolved) {
  // Two same-popularity candidates, no cue: must stay untagged.
  KnowledgeBase kb;
  const TypeId city = kb.AddType("city");
  const TypeId animal = kb.AddType("animal");
  const EntityId a = kb.AddEntity("springfield", city, 2.0).value();
  ASSERT_TRUE(kb.AddEntity("springfield bird", animal, 2.0).ok());
  ASSERT_TRUE(kb.AddAlias("springfield", kb.EntitiesByName("springfield bird")[0]).ok());
  (void)a;
  EntityTagger tagger(&kb);
  Lexicon lexicon;
  const auto units = tagger.Tag(Tokenize("springfield is big", lexicon));
  EXPECT_EQ(units[0].entity, kInvalidEntity);
  // But it is still chunked as a noun.
  EXPECT_EQ(units[0].pos, Pos::kNoun);
}

TEST_F(EntityTaggerTest, ResolvesAliasesInSentenceContext) {
  EXPECT_EQ(Tag("sf is big")[0].entity, fixture_.sf);
  EXPECT_EQ(Tag("unknown-alias is big")[0].entity, kInvalidEntity);
  // The sentence is the disambiguation context: the cue "animal" beats
  // the city's popularity.
  EXPECT_EQ(Tag("phoenix is an animal")[0].entity, fixture_.phoenix_animal);
}

TEST_F(EntityTaggerTest, LongestMatchWins) {
  // "phoenix bird" must match the two-token alias, not "phoenix" alone.
  const auto units = Tag("phoenix bird is dangerous");
  EXPECT_EQ(units[0].text, "phoenix bird");
  EXPECT_EQ(units[0].entity, fixture_.phoenix_animal);
}

TEST_F(EntityTaggerTest, MentionsDoNotCrossPunctuation) {
  const auto units = Tag("san, francisco");
  // No "san francisco" chunk across the comma.
  for (const auto& unit : units) {
    EXPECT_NE(unit.text, "san francisco");
  }
}

// The tagger as it was before the trie: for each position, join up to
// max_mention_tokens token texts with spaces, longest first, and probe a
// map from alias string to candidates; disambiguate against the set of
// the sentence's token texts. Kept as the differential oracle.
std::vector<ParseUnit> OracleTag(const KnowledgeBase& kb,
                                 const EntityTaggerOptions& options,
                                 const std::vector<Token>& tokens) {
  std::unordered_map<std::string, std::vector<EntityId>> aliases;
  for (const std::string& alias : kb.AllAliases()) {
    aliases[alias] = kb.CandidatesForAlias(alias);
  }
  std::unordered_set<std::string_view> context;
  for (const Token& token : tokens) context.insert(token.text);
  auto disambiguate = [&](const std::vector<EntityId>& candidates) {
    if (candidates.empty()) return kInvalidEntity;
    if (candidates.size() == 1) return candidates[0];
    double best = -1e300, second = -1e300;
    EntityId best_entity = kInvalidEntity;
    for (EntityId id : candidates) {
      const Entity& entity = kb.entity(id);
      double score = std::log(std::max(entity.popularity, 1e-12));
      const std::string& type = kb.TypeName(entity.most_notable_type);
      if (context.count(type) > 0 ||
          context.count(Lexicon::Pluralize(type)) > 0) {
        score += options.type_cue_bonus;
      }
      if (score > best) {
        second = best;
        best = score;
        best_entity = id;
      } else if (score > second) {
        second = score;
      }
    }
    return best - second < options.min_disambiguation_margin ? kInvalidEntity
                                                             : best_entity;
  };

  std::vector<ParseUnit> units;
  size_t i = 0;
  while (i < tokens.size()) {
    bool matched = false;
    const int max_len = std::min<int>(options.max_mention_tokens,
                                      static_cast<int>(tokens.size() - i));
    for (int len = max_len; len >= 1 && !matched; --len) {
      std::string joined;
      bool span_ok = true;
      for (int k = 0; k < len; ++k) {
        const Token& t = tokens[i + k];
        if (t.pos == Pos::kPunctuation) span_ok = false;
        if (k > 0) joined += ' ';
        joined += t.text;
      }
      if (!span_ok) continue;
      auto it = aliases.find(joined);
      if (it == aliases.end()) continue;
      ParseUnit unit;
      unit.text = joined;
      unit.pos = Pos::kNoun;
      unit.entity = disambiguate(it->second);
      units.push_back(std::move(unit));
      i += static_cast<size_t>(len);
      matched = true;
    }
    if (!matched) {
      ParseUnit unit;
      unit.text = tokens[i].text;
      unit.pos = tokens[i].pos;
      units.push_back(std::move(unit));
      ++i;
    }
  }
  return units;
}

TEST(EntityTaggerDifferentialTest, MatchesJoinedStringOracle) {
  // A small vocabulary makes multi-token aliases share prefixes and
  // collide across entities; type names double as cue words.
  const std::vector<std::string> vocab = {"ab", "cd", "ef", "gh", "ij", "kl"};
  const std::vector<std::string> types = {"city", "fox", "lily"};
  const std::vector<Pos> word_pos = {Pos::kNoun, Pos::kUnknown,
                                     Pos::kAdjective, Pos::kVerb};
  size_t units_checked = 0, tagged = 0, ambiguous_chunks = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    // An alias word may be a punctuation mark, which no mention crosses.
    auto random_name = [&](size_t max_words) {
      std::vector<std::string> words;
      const size_t n = 1 + rng.Index(max_words);
      for (size_t w = 0; w < n; ++w) {
        words.push_back(rng.Bernoulli(0.05) ? std::string(",")
                                            : vocab[rng.Index(vocab.size())]);
      }
      return Join(words, " ");
    };
    KnowledgeBase kb;
    for (const std::string& type : types) kb.AddType(type);
    std::vector<EntityId> entities;
    // Names and aliases run to six words, past max_mention_tokens.
    for (int e = 0; e < 40; ++e) {
      const double popularity = static_cast<double>(1 << rng.Index(4));
      auto id = kb.AddEntity(random_name(6),
                             static_cast<TypeId>(rng.Index(types.size())),
                             popularity);
      if (id.ok()) entities.push_back(*id);
    }
    for (int a = 0; a < 30; ++a) {
      ASSERT_TRUE(
          kb.AddAlias(random_name(6), entities[rng.Index(entities.size())])
              .ok());
    }
    EntityTaggerOptions options;
    options.max_mention_tokens = static_cast<int>(rng.UniformInt(0, 5));
    options.min_disambiguation_margin = 0.5 * static_cast<double>(rng.Index(3));
    options.type_cue_bonus = rng.Bernoulli(0.5) ? 4.0 : 0.0;
    const EntityTagger tagger(&kb, options);

    for (int sentence = 0; sentence < 50; ++sentence) {
      std::vector<Token> tokens(rng.Index(25));
      for (Token& token : tokens) {
        const size_t draw = rng.Index(20);
        if (draw < 3) {
          token = Token{std::string(1, ",;:"[draw]), Pos::kPunctuation};
        } else if (draw < 5) {
          const std::string& type = types[rng.Index(types.size())];
          token.text = draw == 3 ? type : Lexicon::Pluralize(type);
          token.pos = Pos::kNoun;
        } else if (draw == 5) {
          token.text = "zz";  // in no alias
        } else {
          token.text = vocab[rng.Index(vocab.size())];
          token.pos = word_pos[rng.Index(word_pos.size())];
        }
      }
      const std::vector<ParseUnit> expected = OracleTag(kb, options, tokens);
      const std::vector<ParseUnit> actual = tagger.Tag(tokens);
      ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
      for (size_t u = 0; u < expected.size(); ++u) {
        EXPECT_EQ(actual[u].text, expected[u].text) << "seed " << seed;
        EXPECT_EQ(actual[u].pos, expected[u].pos) << "seed " << seed;
        EXPECT_EQ(actual[u].entity, expected[u].entity) << "seed " << seed;
        ++units_checked;
        if (expected[u].entity != kInvalidEntity) ++tagged;
        if (expected[u].entity == kInvalidEntity &&
            expected[u].text.find(' ') != std::string::npos) {
          ++ambiguous_chunks;
        }
      }
    }
  }
  // The draws exercise every branch: plain tokens, resolved mentions, and
  // multi-token aliases left untagged as too ambiguous.
  EXPECT_GT(tagged, units_checked / 20);
  EXPECT_GT(ambiguous_chunks, 0u);
}

}  // namespace
}  // namespace surveyor
