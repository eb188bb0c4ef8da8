#include "text/lexicon.h"

#include <gtest/gtest.h>

namespace surveyor {
namespace {

TEST(LexiconTest, ClosedClassPreloaded) {
  Lexicon lexicon;
  EXPECT_EQ(lexicon.Lookup("is"), Pos::kToBe);
  EXPECT_EQ(lexicon.Lookup("are"), Pos::kToBe);
  EXPECT_EQ(lexicon.Lookup("seems"), Pos::kCopulaOther);
  EXPECT_EQ(lexicon.Lookup("think"), Pos::kOpinionVerb);
  EXPECT_EQ(lexicon.Lookup("do"), Pos::kAux);
  EXPECT_EQ(lexicon.Lookup("not"), Pos::kNegation);
  EXPECT_EQ(lexicon.Lookup("n't"), Pos::kNegation);
  EXPECT_EQ(lexicon.Lookup("never"), Pos::kNegation);
  EXPECT_EQ(lexicon.Lookup("a"), Pos::kDeterminer);
  EXPECT_EQ(lexicon.Lookup("for"), Pos::kPreposition);
  EXPECT_EQ(lexicon.Lookup("and"), Pos::kConjunction);
  EXPECT_EQ(lexicon.Lookup("that"), Pos::kComplementizer);
  EXPECT_EQ(lexicon.Lookup("i"), Pos::kPronoun);
  EXPECT_EQ(lexicon.Lookup("very"), Pos::kAdverb);
}

TEST(LexiconTest, UnknownWordsDefault) {
  Lexicon lexicon;
  EXPECT_EQ(lexicon.Lookup("zxqwv"), Pos::kUnknown);
  EXPECT_FALSE(lexicon.Contains("zxqwv"));
}

TEST(LexiconTest, AddWordCaseInsensitive) {
  Lexicon lexicon;
  lexicon.AddWord("Big", Pos::kAdjective);
  EXPECT_EQ(lexicon.Lookup("big"), Pos::kAdjective);
  EXPECT_EQ(lexicon.Lookup("BIG"), Pos::kAdjective);
}

TEST(LexiconTest, FirstRegistrationWins) {
  Lexicon lexicon;
  lexicon.AddWord("light", Pos::kAdjective);
  lexicon.AddWord("light", Pos::kNoun);
  EXPECT_EQ(lexicon.Lookup("light"), Pos::kAdjective);
  // Closed-class entries cannot be overridden.
  lexicon.AddWord("is", Pos::kNoun);
  EXPECT_EQ(lexicon.Lookup("is"), Pos::kToBe);
}

TEST(LexiconTest, PluralizeRules) {
  EXPECT_EQ(Lexicon::Pluralize("city"), "cities");
  EXPECT_EQ(Lexicon::Pluralize("animal"), "animals");
  EXPECT_EQ(Lexicon::Pluralize("fox"), "foxes");
  EXPECT_EQ(Lexicon::Pluralize("bus"), "buses");
  EXPECT_EQ(Lexicon::Pluralize("church"), "churches");
  EXPECT_EQ(Lexicon::Pluralize("dish"), "dishes");
  EXPECT_EQ(Lexicon::Pluralize("day"), "days");
  EXPECT_EQ(Lexicon::Pluralize("quiz"), "quizes");
}

TEST(LexiconTest, NounWithPluralRoundTrip) {
  Lexicon lexicon;
  const std::string plural = lexicon.AddNounWithPlural("city");
  EXPECT_EQ(plural, "cities");
  EXPECT_EQ(lexicon.Lookup("city"), Pos::kNoun);
  EXPECT_EQ(lexicon.Lookup("cities"), Pos::kNoun);
  EXPECT_EQ(lexicon.Singularize("cities"), "city");
  // Unregistered plurals map to themselves.
  EXPECT_EQ(lexicon.Singularize("dogs"), "dogs");
}

TEST(LexiconTest, MixedCaseProbesFindLowerCasedEntries) {
  Lexicon lexicon;
  lexicon.AddNounWithPlural("City");
  lexicon.AddWord("cute", Pos::kAdjective);
  EXPECT_EQ(lexicon.Lookup("CiTies"), Pos::kNoun);
  EXPECT_EQ(lexicon.Lookup("CUTE"), Pos::kAdjective);
  EXPECT_EQ(lexicon.Lookup("The"), Pos::kDeterminer);
  EXPECT_TRUE(lexicon.Contains("Cute"));
  EXPECT_TRUE(lexicon.Contains("cute"));
  EXPECT_FALSE(lexicon.Contains("Cuter"));
  EXPECT_EQ(lexicon.Singularize("CITIES"), "city");
  EXPECT_EQ(lexicon.Singularize("cities"), "city");
  // Misses come back lower-cased, as hits do.
  EXPECT_EQ(lexicon.Singularize("Dogs"), "dogs");
}

}  // namespace
}  // namespace surveyor
