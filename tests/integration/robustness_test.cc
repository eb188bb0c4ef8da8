// Robustness and invariance properties: the pipeline must never crash on
// garbage input, must be deterministic given seeds, and the EM must be
// invariant under entity permutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "model/em.h"
#include "surveyor/api.h"
#include "text/annotator.h"
#include "util/rng.h"

namespace surveyor {
namespace {

TEST(RobustnessTest, AnnotatorSurvivesRandomBytes) {
  World world = World::Generate(MakeTinyWorldConfig()).value();
  TextAnnotator annotator(&world.kb(), &world.lexicon());
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const size_t length = rng.Index(200);
    for (size_t i = 0; i < length; ++i) {
      garbage += static_cast<char>(rng.UniformInt(int64_t{1}, int64_t{127}));
    }
    const AnnotatedDocument doc = annotator.AnnotateDocument(trial, garbage);
    for (const AnnotatedSentence& sentence : doc.sentences) {
      if (sentence.parsed) {
        EXPECT_TRUE(sentence.tree.Validate().ok());
      }
    }
  }
}

TEST(RobustnessTest, AnnotatorSurvivesAdversarialTokenSoup) {
  // Grammar-adjacent garbage: real vocabulary in random order.
  World world = World::Generate(MakeTinyWorldConfig()).value();
  TextAnnotator annotator(&world.kb(), &world.lexicon());
  EvidenceExtractor extractor;
  const std::vector<std::string> vocabulary = {
      "kitten", "is",  "not",   "a",    "cute", "animal", "and", "i",
      "don't",  "think", "that", "very", "san francisco", "big", "city",
      "for",    "never", "are",  ",",    "seems", "find"};
  Rng rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    std::string soup;
    const size_t length = 1 + rng.Index(12);
    for (size_t i = 0; i < length; ++i) {
      soup += vocabulary[rng.Index(vocabulary.size())];
      soup += ' ';
    }
    const AnnotatedSentence sentence = annotator.AnnotateSentence(soup);
    if (sentence.parsed) {
      EXPECT_TRUE(sentence.tree.Validate().ok()) << soup;
      // Extraction must not crash either.
      extractor.ExtractFromSentence(sentence);
    }
  }
}

TEST(RobustnessTest, PipelineFullyDeterministic) {
  World world = World::Generate(MakeTinyWorldConfig()).value();
  GeneratorOptions options;
  options.author_population = 4000;
  options.seed = 31;
  const auto corpus = CorpusGenerator(&world, options).Generate();
  SurveyorConfig config;
  config.min_statements = 20;
  auto a = Mine(config, corpus, world.kb(), world.lexicon());
  auto b = Mine(config, corpus, world.kb(), world.lexicon());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->pairs.size(), b->pairs.size());
  for (size_t p = 0; p < a->pairs.size(); ++p) {
    EXPECT_EQ(a->pairs[p].evidence.property, b->pairs[p].evidence.property);
    EXPECT_EQ(a->pairs[p].params, b->pairs[p].params);
    EXPECT_EQ(a->pairs[p].posterior, b->pairs[p].posterior);
  }
}

TEST(RobustnessTest, EmPermutationInvariant) {
  Rng rng(55);
  std::vector<EvidenceCounts> counts;
  for (int i = 0; i < 500; ++i) {
    counts.push_back({rng.Poisson(rng.Bernoulli(0.3) ? 40.0 : 1.0),
                      rng.Poisson(0.5)});
  }
  auto original = EmLearner().Fit(counts);
  ASSERT_TRUE(original.ok());

  // Permute entities; the fitted parameters must not change and the
  // responsibilities must follow the permutation.
  std::vector<size_t> order(counts.size());
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle_rng(56);
  shuffle_rng.Shuffle(order);
  std::vector<EvidenceCounts> permuted(counts.size());
  for (size_t i = 0; i < counts.size(); ++i) permuted[i] = counts[order[i]];
  auto permuted_fit = EmLearner().Fit(permuted);
  ASSERT_TRUE(permuted_fit.ok());

  EXPECT_NEAR(permuted_fit->params.agreement, original->params.agreement,
              1e-9);
  EXPECT_NEAR(permuted_fit->params.mu_positive, original->params.mu_positive,
              1e-6);
  EXPECT_NEAR(permuted_fit->params.mu_negative, original->params.mu_negative,
              1e-6);
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_NEAR(permuted_fit->responsibilities[i],
                original->responsibilities[order[i]], 1e-9);
  }
}

TEST(RobustnessTest, EmDuplicationInvariant) {
  // Duplicating every entity must not change the fitted parameters
  // (sufficient statistics scale uniformly).
  Rng rng(57);
  std::vector<EvidenceCounts> counts;
  for (int i = 0; i < 300; ++i) {
    counts.push_back({rng.Poisson(rng.Bernoulli(0.3) ? 40.0 : 1.0),
                      rng.Poisson(0.5)});
  }
  std::vector<EvidenceCounts> doubled = counts;
  doubled.insert(doubled.end(), counts.begin(), counts.end());
  auto single = EmLearner().Fit(counts);
  auto twice = EmLearner().Fit(doubled);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(twice.ok());
  EXPECT_NEAR(single->params.agreement, twice->params.agreement, 1e-6);
  EXPECT_NEAR(single->params.mu_positive, twice->params.mu_positive, 1e-4);
  EXPECT_NEAR(single->params.mu_negative, twice->params.mu_negative, 1e-4);
}

TEST(RobustnessTest, CorpusSerializationPreservesPipelineOutput) {
  // Save the corpus to its TSV form, reload, rerun: identical results.
  World world = World::Generate(MakeTinyWorldConfig()).value();
  GeneratorOptions options;
  options.author_population = 3000;
  const auto corpus = CorpusGenerator(&world, options).Generate();

  std::stringstream stream;
  ASSERT_TRUE(SaveCorpus(corpus, stream).ok());
  auto reloaded = LoadCorpus(stream);
  ASSERT_TRUE(reloaded.ok());

  SurveyorConfig config;
  config.min_statements = 20;
  auto a = Mine(config, corpus, world.kb(), world.lexicon());
  auto b = Mine(config, *reloaded, world.kb(), world.lexicon());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.num_statements, b->stats.num_statements);
  EXPECT_EQ(a->Opinions().size(), b->Opinions().size());
}

}  // namespace
}  // namespace surveyor
