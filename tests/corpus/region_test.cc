// Tests for region-specific corpus generation and domain-restricted mining
// (paper Section 2).
#include <gtest/gtest.h>

#include <set>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "surveyor/api.h"

namespace surveyor {
namespace {

class RegionTest : public testing::Test {
 protected:
  RegionTest() : world_(World::Generate(MakeTinyWorldConfig()).value()) {}

  World world_;
};

TEST_F(RegionTest, DocumentsCarryDomains) {
  GeneratorOptions options;
  options.author_population = 4000;
  options.regions = {RegionSpec{"us", 0.7, 0.0}, RegionSpec{"cn", 0.3, 0.0}};
  const auto corpus = CorpusGenerator(&world_, options).Generate();
  size_t us = 0, cn = 0, other = 0;
  for (const RawDocument& doc : corpus) {
    if (doc.domain == "us") {
      ++us;
    } else if (doc.domain == "cn") {
      ++cn;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(other, 0u);
  EXPECT_GT(us, cn);  // 70/30 weight split
  EXPECT_GT(cn, 0u);
}

TEST_F(RegionTest, DocIdsUniqueAcrossRegions) {
  GeneratorOptions options;
  options.author_population = 3000;
  options.regions = {RegionSpec{"a", 0.5, 0.0}, RegionSpec{"b", 0.5, 0.0}};
  const auto corpus = CorpusGenerator(&world_, options).Generate();
  std::set<int64_t> ids;
  for (const RawDocument& doc : corpus) {
    EXPECT_TRUE(ids.insert(doc.doc_id).second);
  }
}

TEST_F(RegionTest, NoRegionsMeansNoDomain) {
  GeneratorOptions options;
  options.author_population = 2000;
  const auto corpus = CorpusGenerator(&world_, options).Generate();
  for (const RawDocument& doc : corpus) EXPECT_TRUE(doc.domain.empty());
}

TEST_F(RegionTest, OppositeShiftsProduceOppositeOpinions) {
  // A balanced-expression property so counts track opinion directly.
  WorldConfig config = MakeTinyWorldConfig();
  config.types[0].properties[0].express_positive = 0.06;
  config.types[0].properties[0].express_negative = 0.04;
  config.types[0].properties[0].agreement = 0.7;
  World world = World::Generate(config).value();

  GeneratorOptions options;
  options.author_population = 20000;
  options.regions = {RegionSpec{"pro", 0.5, +2.5},
                     RegionSpec{"anti", 0.5, -2.5}};
  const auto corpus = CorpusGenerator(&world, options).Generate();

  SurveyorConfig pipeline_config;
  pipeline_config.min_statements = 30;
  const TypeId animal = world.kb().TypeByName("animal").value();

  auto pro = Mine(pipeline_config, FilterByDomain(corpus, "pro"), world.kb(),
                  world.lexicon());
  auto anti = Mine(pipeline_config, FilterByDomain(corpus, "anti"),
                   world.kb(), world.lexicon());
  ASSERT_TRUE(pro.ok());
  ASSERT_TRUE(anti.ok());
  const PropertyTypeResult* pro_pair = pro->Find(animal, "cute");
  const PropertyTypeResult* anti_pair = anti->Find(animal, "cute");
  ASSERT_NE(pro_pair, nullptr);
  ASSERT_NE(anti_pair, nullptr);

  // The pro region should affirm cuteness for clearly more animals.
  auto positives = [](const PropertyTypeResult& pair) {
    int count = 0;
    for (Polarity p : pair.polarity) count += p == Polarity::kPositive;
    return count;
  };
  EXPECT_GT(positives(*pro_pair), positives(*anti_pair) + 3);
}

TEST_F(RegionTest, WeightsMustBePositive) {
  GeneratorOptions options;
  options.regions = {RegionSpec{"x", 0.0, 0.0}};
  EXPECT_DEATH(CorpusGenerator(&world_, options),
               "region.weight");
}

}  // namespace
}  // namespace surveyor
