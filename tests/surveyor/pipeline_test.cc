#include "surveyor/pipeline.h"

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "extraction/aggregator.h"
#include "extraction/extractor.h"
#include "surveyor/api.h"
#include "text/annotator.h"
#include "text/document_source.h"

namespace surveyor {
namespace {

class PipelineTest : public testing::Test {
 protected:
  PipelineTest() : world_(World::Generate(MakeTinyWorldConfig()).value()) {
    GeneratorOptions options;
    options.author_population = 8000;
    options.seed = 77;
    corpus_ = CorpusGenerator(&world_, options).Generate();
  }

  World world_;
  std::vector<RawDocument> corpus_;
};

TEST_F(PipelineTest, EndToEndRunProducesOpinions) {
  SurveyorConfig config;
  config.min_statements = 20;
  config.num_threads = 4;
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_GT(result->stats.num_documents, 0);
  EXPECT_GT(result->stats.num_sentences, 0);
  EXPECT_GT(result->stats.num_parsed_sentences, 0);
  EXPECT_LE(result->stats.num_parsed_sentences, result->stats.num_sentences);
  EXPECT_GT(result->stats.num_statements, 0);
  EXPECT_GT(result->stats.num_kept_property_type_pairs, 0);
  EXPECT_LE(result->stats.num_kept_property_type_pairs,
            result->stats.num_property_type_pairs);
  EXPECT_GT(result->stats.num_opinions, 0);

  // The three seeded property-type combinations should pass the threshold.
  const TypeId animal = world_.kb().TypeByName("animal").value();
  const TypeId city = world_.kb().TypeByName("city").value();
  EXPECT_NE(result->Find(animal, "cute"), nullptr);
  EXPECT_NE(result->Find(animal, "dangerous"), nullptr);
  EXPECT_NE(result->Find(city, "big"), nullptr);
}

TEST_F(PipelineTest, OpinionsMostlyMatchGroundTruth) {
  SurveyorConfig config;
  config.min_statements = 20;
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok());

  int correct = 0, total = 0;
  for (const PropertyTypeResult& pair : result->pairs) {
    const PropertyGroundTruth* truth =
        world_.FindGroundTruth(pair.evidence.type, pair.evidence.property);
    if (truth == nullptr) continue;  // adverb-fragmented property
    for (size_t i = 0; i < pair.evidence.entities.size(); ++i) {
      if (pair.polarity[i] == Polarity::kNeutral) continue;
      ++total;
      if (pair.polarity[i] == truth->dominant[i]) ++correct;
    }
  }
  ASSERT_GT(total, 20);
  EXPECT_GT(static_cast<double>(correct) / total, 0.8);
}

TEST_F(PipelineTest, PerEntityPolaritiesAlignWithPosterior) {
  SurveyorConfig config;
  config.min_statements = 20;
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok());
  for (const PropertyTypeResult& pair : result->pairs) {
    ASSERT_EQ(pair.posterior.size(), pair.evidence.entities.size());
    ASSERT_EQ(pair.polarity.size(), pair.evidence.entities.size());
    for (size_t i = 0; i < pair.posterior.size(); ++i) {
      EXPECT_EQ(pair.polarity[i], DecidePolarity(pair.posterior[i]));
    }
  }
}

TEST_F(PipelineTest, OpinionsFlattenNonNeutralOnly) {
  SurveyorConfig config;
  config.min_statements = 20;
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok());
  const auto opinions = result->Opinions();
  EXPECT_EQ(static_cast<int64_t>(opinions.size()),
            result->stats.num_opinions);
  for (const PairOpinion& opinion : opinions) {
    EXPECT_NE(opinion.polarity, Polarity::kNeutral);
    if (opinion.polarity == Polarity::kPositive) {
      EXPECT_GT(opinion.probability, 0.5);
    } else {
      EXPECT_LT(opinion.probability, 0.5);
    }
  }
}

TEST_F(PipelineTest, RhoThresholdControlsPairCount) {
  SurveyorConfig loose;
  loose.min_statements = 5;
  SurveyorConfig strict;
  strict.min_statements = 200;
  auto loose_result = Mine(loose, corpus_, world_.kb(), world_.lexicon());
  auto strict_result = Mine(strict, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(loose_result.ok());
  ASSERT_TRUE(strict_result.ok());
  EXPECT_GE(loose_result->stats.num_kept_property_type_pairs,
            strict_result->stats.num_kept_property_type_pairs);
}

TEST_F(PipelineTest, SingleAndMultiThreadAgree) {
  SurveyorConfig single;
  single.min_statements = 20;
  single.num_threads = 1;
  SurveyorConfig multi = single;
  multi.num_threads = 8;
  auto a = Mine(single, corpus_, world_.kb(), world_.lexicon());
  auto b = Mine(multi, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->stats.num_statements, b->stats.num_statements);
  EXPECT_EQ(a->stats.num_kept_property_type_pairs,
            b->stats.num_kept_property_type_pairs);
  EXPECT_EQ(a->stats.num_opinions, b->stats.num_opinions);
  ASSERT_EQ(a->pairs.size(), b->pairs.size());
  for (size_t p = 0; p < a->pairs.size(); ++p) {
    EXPECT_EQ(a->pairs[p].evidence.property, b->pairs[p].evidence.property);
    EXPECT_EQ(a->pairs[p].polarity, b->pairs[p].polarity);
  }
}

TEST_F(PipelineTest, RunFromEvidenceValidatesThreshold) {
  SurveyorConfig config;
  config.decision_threshold = 0.4;  // invalid
  SurveyorPipeline pipeline(&world_.kb(), &world_.lexicon(), config);
  EXPECT_FALSE(pipeline.RunFromEvidence({}).ok());
}

TEST_F(PipelineTest, ProvenanceLinksBackToDocuments) {
  SurveyorConfig config;
  config.min_statements = 20;
  config.max_provenance_samples = 3;
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->provenance.empty());

  TextAnnotator annotator(&world_.kb(), &world_.lexicon());
  EvidenceExtractor extractor;
  int verified = 0;
  for (const auto& [key, refs] : result->provenance) {
    ASSERT_LE(refs.size(), 3u);
    for (const StatementRef& ref : refs) {
      if (verified >= 20) break;
      // The referenced document must actually contain a statement about
      // the pair with the recorded polarity.
      ASSERT_LT(static_cast<size_t>(ref.doc_id), corpus_.size());
      const RawDocument& doc = corpus_[ref.doc_id];
      EXPECT_EQ(doc.doc_id, ref.doc_id);
      const AnnotatedDocument annotated =
          annotator.AnnotateDocument(doc.doc_id, doc.text);
      bool found = false;
      for (const EvidenceStatement& statement :
           extractor.ExtractFromDocument(annotated)) {
        if (statement.entity == key.first && statement.property == key.second &&
            statement.sentence_index == ref.sentence_index &&
            statement.positive == ref.positive) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << "pair " << key.second << " doc " << ref.doc_id;
      ++verified;
    }
  }
  EXPECT_GT(verified, 5);
}

TEST_F(PipelineTest, ProvenanceOffByDefault) {
  SurveyorConfig config;
  config.min_statements = 20;
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->provenance.empty());
}

TEST_F(PipelineTest, EmptyCorpusYieldsEmptyResult) {
  auto result = Mine(SurveyorConfig(), std::vector<RawDocument>(),
                     world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_documents, 0);
  EXPECT_EQ(result->stats.num_opinions, 0);
  EXPECT_TRUE(result->pairs.empty());
}

TEST(SurveyorConfigTest, ValidateCentralizesRangeChecks) {
  EXPECT_TRUE(SurveyorConfig{}.Validate().ok());

  SurveyorConfig config;
  config.min_statements = -1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  config = SurveyorConfig{};
  config.decision_threshold = 0.4;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.decision_threshold = 1.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  config = SurveyorConfig{};
  config.num_threads = -2;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);

  config = SurveyorConfig{};
  config.fault_spec = "not a spec";
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fault_spec"), std::string::npos);
}

TEST_F(PipelineTest, EveryEntryPointSurfacesValidateVerbatim) {
  SurveyorConfig config;
  config.decision_threshold = 2.0;
  const std::string expected =
      std::string(SurveyorConfig{config}.Validate().message());
  ASSERT_FALSE(expected.empty());

  const auto mined = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_FALSE(mined.ok());
  EXPECT_EQ(mined.status().message(), expected);

  VectorDocumentSource source(&corpus_);
  const auto streamed = Mine(config, source, world_.kb(), world_.lexicon());
  ASSERT_FALSE(streamed.ok());
  EXPECT_EQ(streamed.status().message(), expected);

  const auto fitted = SurveyorPipeline(&world_.kb(), &world_.lexicon(), config)
                          .RunFromEvidence({});
  ASSERT_FALSE(fitted.ok());
  EXPECT_EQ(fitted.status().message(), expected);
}

TEST_F(PipelineTest, FeedsEmDirectly) {
  // Evidence grouped outside the pipeline plugs straight into the
  // model-learning stage and infers exactly what Mine infers.
  SurveyorConfig config;
  config.min_statements = 20;
  auto mined = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(mined.ok()) << mined.status();
  ASSERT_FALSE(mined->pairs.empty());

  const TextAnnotator annotator(&world_.kb(), &world_.lexicon(),
                                config.tagger);
  const EvidenceExtractor extractor(config.extraction);
  EvidenceAggregator aggregator;
  for (const RawDocument& doc : corpus_) {
    aggregator.AddAll(extractor.ExtractFromDocument(
        annotator.AnnotateDocument(doc.doc_id, doc.text)));
  }
  auto fitted = SurveyorPipeline(&world_.kb(), &world_.lexicon(), config)
                    .RunFromEvidence(aggregator.GroupByType(
                        world_.kb(), config.min_statements));
  ASSERT_TRUE(fitted.ok()) << fitted.status();
  EXPECT_GT(fitted->stats.num_opinions, 0);
  EXPECT_EQ(fitted->stats.num_opinions, mined->stats.num_opinions);

  ASSERT_EQ(fitted->pairs.size(), mined->pairs.size());
  for (size_t p = 0; p < fitted->pairs.size(); ++p) {
    const PropertyTypeResult& a = fitted->pairs[p];
    const PropertyTypeResult& b = mined->pairs[p];
    EXPECT_EQ(a.evidence.type, b.evidence.type);
    EXPECT_EQ(a.evidence.property, b.evidence.property);
    EXPECT_EQ(a.evidence.total_statements, b.evidence.total_statements);
    EXPECT_EQ(a.evidence.entities, b.evidence.entities);
    EXPECT_EQ(a.evidence.counts, b.evidence.counts);
    EXPECT_EQ(a.posterior, b.posterior);
    EXPECT_EQ(a.polarity, b.polarity);
  }
}

}  // namespace
}  // namespace surveyor
