#include "extraction/aggregator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

namespace surveyor {
namespace {

EvidenceStatement Statement(EntityId entity, const std::string& property,
                            bool positive) {
  EvidenceStatement s;
  s.entity = entity;
  s.adjective = property;
  s.property = property;
  s.positive = positive;
  return s;
}

class AggregatorTest : public testing::Test {
 protected:
  AggregatorTest() {
    city_ = kb_.AddType("city");
    animal_ = kb_.AddType("animal");
    sf_ = kb_.AddEntity("san francisco", city_).value();
    pa_ = kb_.AddEntity("palo alto", city_).value();
    cat_ = kb_.AddEntity("cat", animal_).value();
  }

  KnowledgeBase kb_;
  TypeId city_ = kInvalidType;
  TypeId animal_ = kInvalidType;
  EntityId sf_ = kInvalidEntity;
  EntityId pa_ = kInvalidEntity;
  EntityId cat_ = kInvalidEntity;
};

TEST_F(AggregatorTest, CountsPositiveAndNegative) {
  EvidenceAggregator aggregator;
  aggregator.Add(Statement(sf_, "big", true));
  aggregator.Add(Statement(sf_, "big", true));
  aggregator.Add(Statement(sf_, "big", false));
  const EvidenceCounts counts = aggregator.CountsFor(sf_, "big");
  EXPECT_EQ(counts.positive, 2);
  EXPECT_EQ(counts.negative, 1);
  EXPECT_EQ(aggregator.total_statements(), 3);
  EXPECT_EQ(aggregator.num_pairs(), 1u);
}

TEST_F(AggregatorTest, MissingPairIsZero) {
  EvidenceAggregator aggregator;
  const EvidenceCounts counts = aggregator.CountsFor(sf_, "big");
  EXPECT_EQ(counts.positive, 0);
  EXPECT_EQ(counts.negative, 0);
}

TEST_F(AggregatorTest, SeparatesProperties) {
  EvidenceAggregator aggregator;
  aggregator.Add(Statement(sf_, "big", true));
  aggregator.Add(Statement(sf_, "very big", true));
  EXPECT_EQ(aggregator.num_pairs(), 2u);
  EXPECT_EQ(aggregator.CountsFor(sf_, "big").positive, 1);
  EXPECT_EQ(aggregator.CountsFor(sf_, "very big").positive, 1);
}

TEST_F(AggregatorTest, MergeCombinesCounters) {
  EvidenceAggregator a;
  EvidenceAggregator b;
  a.Add(Statement(sf_, "big", true));
  b.Add(Statement(sf_, "big", false));
  b.Add(Statement(pa_, "big", true));
  a.Merge(b);
  EXPECT_EQ(a.total_statements(), 3);
  EXPECT_EQ(a.CountsFor(sf_, "big").positive, 1);
  EXPECT_EQ(a.CountsFor(sf_, "big").negative, 1);
  EXPECT_EQ(a.CountsFor(pa_, "big").positive, 1);
}

TEST_F(AggregatorTest, GroupByTypeMaterializesAllEntities) {
  EvidenceAggregator aggregator;
  aggregator.Add(Statement(sf_, "big", true));
  const auto groups = aggregator.GroupByType(kb_, 1);
  ASSERT_EQ(groups.size(), 1u);
  const PropertyTypeEvidence& group = groups[0];
  EXPECT_EQ(group.type, city_);
  EXPECT_EQ(group.property, "big");
  EXPECT_EQ(group.total_statements, 1);
  // Both cities appear, palo alto with zero counts.
  ASSERT_EQ(group.entities.size(), 2u);
  ASSERT_EQ(group.counts.size(), 2u);
  EXPECT_EQ(group.counts[0].positive + group.counts[1].positive, 1);
}

TEST_F(AggregatorTest, GroupByTypeSplitsTypes) {
  EvidenceAggregator aggregator;
  aggregator.Add(Statement(sf_, "big", true));
  aggregator.Add(Statement(cat_, "big", true));
  const auto groups = aggregator.GroupByType(kb_, 1);
  EXPECT_EQ(groups.size(), 2u);  // (city,big) and (animal,big)
}

TEST_F(AggregatorTest, RhoThresholdFilters) {
  EvidenceAggregator aggregator;
  for (int i = 0; i < 5; ++i) aggregator.Add(Statement(sf_, "big", true));
  aggregator.Add(Statement(sf_, "calm", true));
  EXPECT_EQ(aggregator.GroupByType(kb_, 1).size(), 2u);
  EXPECT_EQ(aggregator.GroupByType(kb_, 3).size(), 1u);
  EXPECT_EQ(aggregator.GroupByType(kb_, 6).size(), 0u);
}

TEST_F(AggregatorTest, ThresholdSumsAcrossEntities) {
  EvidenceAggregator aggregator;
  aggregator.Add(Statement(sf_, "big", true));
  aggregator.Add(Statement(pa_, "big", false));
  // Two statements across entities pass a threshold of 2.
  EXPECT_EQ(aggregator.GroupByType(kb_, 2).size(), 1u);
}

TEST_F(AggregatorTest, StatementsPerEntity) {
  EvidenceAggregator aggregator;
  aggregator.Add(Statement(sf_, "big", true));
  aggregator.Add(Statement(sf_, "calm", false));
  aggregator.Add(Statement(cat_, "cute", true));
  const auto per_entity = aggregator.StatementsPerEntity(kb_);
  ASSERT_EQ(per_entity.size(), kb_.num_entities());
  EXPECT_EQ(per_entity[sf_], 2);
  EXPECT_EQ(per_entity[pa_], 0);
  EXPECT_EQ(per_entity[cat_], 1);
}

TEST_F(AggregatorTest, ProvenanceDisabledByDefault) {
  EvidenceAggregator aggregator;
  EvidenceStatement s = Statement(sf_, "big", true);
  s.doc_id = 42;
  aggregator.Add(s);
  EXPECT_TRUE(aggregator.SupportingStatements(sf_, "big").empty());
}

TEST_F(AggregatorTest, ProvenanceKeepsBoundedSamples) {
  EvidenceAggregator aggregator(/*max_provenance_samples=*/2);
  for (int i = 0; i < 5; ++i) {
    EvidenceStatement s = Statement(sf_, "big", i % 2 == 0);
    s.doc_id = 100 + i;
    s.sentence_index = i;
    aggregator.Add(s);
  }
  const auto refs = aggregator.SupportingStatements(sf_, "big");
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].doc_id, 100);
  EXPECT_EQ(refs[0].sentence_index, 0);
  EXPECT_TRUE(refs[0].positive);
  EXPECT_EQ(refs[1].doc_id, 101);
  EXPECT_FALSE(refs[1].positive);
  EXPECT_TRUE(aggregator.SupportingStatements(sf_, "calm").empty());
  EXPECT_TRUE(aggregator.SupportingStatements(pa_, "big").empty());
}

TEST_F(AggregatorTest, ProvenanceMergesWithCap) {
  EvidenceAggregator a(2);
  EvidenceAggregator b(2);
  EvidenceStatement s1 = Statement(sf_, "big", true);
  s1.doc_id = 1;
  EvidenceStatement s2 = Statement(sf_, "big", true);
  s2.doc_id = 2;
  EvidenceStatement s3 = Statement(sf_, "big", true);
  s3.doc_id = 3;
  a.Add(s1);
  b.Add(s2);
  b.Add(s3);
  a.Merge(b);
  const auto refs = a.SupportingStatements(sf_, "big");
  ASSERT_EQ(refs.size(), 2u);  // capped at 2 despite 3 available
  EXPECT_EQ(refs[0].doc_id, 1);
  EXPECT_EQ(refs[1].doc_id, 2);
}

TEST_F(AggregatorTest, ProvenanceIsIndependentOfArrivalOrder) {
  // Twelve statements over six documents, two sentences each, with a
  // positive and a negative statement sharing one sentence.
  std::vector<EvidenceStatement> statements;
  for (int i = 0; i < 12; ++i) {
    EvidenceStatement s = Statement(sf_, "big", i % 3 != 0);
    s.doc_id = 10 + i / 2;
    s.sentence_index = i % 2;
    statements.push_back(s);
  }
  EvidenceStatement tie = Statement(sf_, "big", false);
  tie.doc_id = 10;
  tie.sentence_index = 1;
  statements.push_back(tie);

  auto refs_of = [&](const EvidenceAggregator& aggregator) {
    std::vector<std::tuple<int64_t, int, bool>> refs;
    for (const StatementRef& ref :
         aggregator.SupportingStatements(sf_, "big")) {
      refs.emplace_back(ref.doc_id, ref.sentence_index, ref.positive);
    }
    return refs;
  };

  EvidenceAggregator in_order(4);
  in_order.AddAll(statements);
  const auto expected = refs_of(in_order);
  ASSERT_EQ(expected.size(), 4u);
  EXPECT_EQ(expected[0], std::make_tuple(int64_t{10}, 0, false));
  EXPECT_EQ(expected[1], std::make_tuple(int64_t{10}, 1, false));
  EXPECT_EQ(expected[2], std::make_tuple(int64_t{10}, 1, true));
  EXPECT_EQ(expected[3], std::make_tuple(int64_t{11}, 0, true));

  // Shuffled Add order: the same refs.
  std::vector<EvidenceStatement> shuffled = statements;
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::mt19937_64 rng(seed);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EvidenceAggregator aggregator(4);
    aggregator.AddAll(shuffled);
    EXPECT_EQ(refs_of(aggregator), expected) << "seed " << seed;
  }

  // Shards merged forward and in reverse: the same refs.
  std::vector<EvidenceAggregator> shards(3, EvidenceAggregator(4));
  for (size_t i = 0; i < statements.size(); ++i) {
    shards[i % shards.size()].Add(statements[i]);
  }
  EvidenceAggregator forward(4);
  for (const EvidenceAggregator& shard : shards) forward.Merge(shard);
  EvidenceAggregator reversed(4);
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    reversed.Merge(*it);
  }
  EXPECT_EQ(refs_of(forward), expected);
  EXPECT_EQ(refs_of(reversed), expected);
}

TEST_F(AggregatorTest, DeterministicGroupOrder) {
  EvidenceAggregator aggregator;
  aggregator.Add(Statement(cat_, "cute", true));
  aggregator.Add(Statement(sf_, "big", true));
  aggregator.Add(Statement(sf_, "calm", true));
  const auto groups = aggregator.GroupByType(kb_, 1);
  ASSERT_EQ(groups.size(), 3u);
  // Ordered by (type id, property).
  EXPECT_EQ(groups[0].property, "big");
  EXPECT_EQ(groups[1].property, "calm");
  EXPECT_EQ(groups[2].property, "cute");
}

}  // namespace
}  // namespace surveyor
