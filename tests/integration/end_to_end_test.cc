// Integration tests: the full Surveyor loop on the paper's evaluation
// world — corpus simulation, annotation, extraction, EM, and the method
// comparison. These assert the *shapes* of the paper's results (who wins,
// and in which direction metrics move), not absolute numbers.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/majority_vote.h"
#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "eval/harness.h"
#include "eval/testcases.h"
#include "surveyor/api.h"
#include "surveyor/surveyor_classifier.h"
#include "util/math.h"

namespace surveyor {
namespace {

/// Shared expensive fixture: one paper-world corpus, prepared once.
class EndToEndTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World(
        World::Generate(MakePaperWorldConfig(/*entities_per_type=*/150)).value());
    GeneratorOptions options;
    options.author_population = 800;
    options.seed = 101;
    corpus_ = new std::vector<RawDocument>(
        CorpusGenerator(world_, options).Generate());
    harness_ = new ComparisonHarness(&world_->kb(), &world_->lexicon());
    ASSERT_TRUE(harness_->Prepare(*corpus_).ok());
    Rng rng(103);
    labeled_ = new std::vector<LabeledTestCase>(LabelWithAmt(
        *world_, SelectCuratedTestCases(*world_, 20), AmtOptions{20}, rng));
  }

  static void TearDownTestSuite() {
    delete labeled_;
    delete harness_;
    delete corpus_;
    delete world_;
    labeled_ = nullptr;
    harness_ = nullptr;
    corpus_ = nullptr;
    world_ = nullptr;
  }

  static World* world_;
  static std::vector<RawDocument>* corpus_;
  static ComparisonHarness* harness_;
  static std::vector<LabeledTestCase>* labeled_;
};

World* EndToEndTest::world_ = nullptr;
std::vector<RawDocument>* EndToEndTest::corpus_ = nullptr;
ComparisonHarness* EndToEndTest::harness_ = nullptr;
std::vector<LabeledTestCase>* EndToEndTest::labeled_ = nullptr;

TEST_F(EndToEndTest, CorpusIsSubstantial) {
  EXPECT_GT(corpus_->size(), 1000u);
  EXPECT_GT(harness_->total_statements(), 5000);
}

TEST_F(EndToEndTest, TestSetResemblesPaperProtocol) {
  // 25 pairs x 20 entities = 500 cases, minus ties (about 4% in the paper).
  EXPECT_GT(labeled_->size(), 400u);
  EXPECT_LE(labeled_->size(), 500u);
  // Mean worker agreement around 17/20.
  double mean_agreement = 0.0;
  for (const auto& l : *labeled_) mean_agreement += l.vote.agreement;
  mean_agreement /= static_cast<double>(labeled_->size());
  EXPECT_GT(mean_agreement, 15.0);
  EXPECT_LT(mean_agreement, 19.9);
}

TEST_F(EndToEndTest, SurveyorBeatsBaselinesTable3Shape) {
  SurveyorClassifier surveyor_method;
  MajorityVoteClassifier mv;
  ScaledMajorityVoteClassifier smv(harness_->global_scale());

  const EvalMetrics s = harness_->Evaluate(surveyor_method, *labeled_);
  const EvalMetrics m = harness_->Evaluate(mv, *labeled_);
  const EvalMetrics sc = harness_->Evaluate(smv, *labeled_);
  const EvalMetrics w = harness_->Evaluate(harness_->webchild(), *labeled_);

  // Table 3 shape: Surveyor has much higher coverage than MV/SMV, and the
  // best precision and F1.
  EXPECT_GT(s.coverage(), 0.9);
  EXPECT_GT(s.coverage(), m.coverage() * 1.5);
  EXPECT_GT(s.coverage(), sc.coverage() * 1.5);
  EXPECT_GT(s.precision(), m.precision());
  EXPECT_GT(s.precision(), sc.precision());
  EXPECT_GT(s.f1(), m.f1());
  EXPECT_GT(s.f1(), sc.f1());
  EXPECT_GT(s.f1(), w.f1());
  EXPECT_GT(s.precision(), 0.7);
}

TEST_F(EndToEndTest, PrecisionRisesWithWorkerAgreementFig12Shape) {
  SurveyorClassifier surveyor_method;
  const EvalMetrics all = harness_->Evaluate(surveyor_method, *labeled_, 11);
  const EvalMetrics high = harness_->Evaluate(surveyor_method, *labeled_, 19);
  ASSERT_GT(high.total_cases, 20);
  EXPECT_GE(high.precision(), all.precision());
}

TEST_F(EndToEndTest, MajorityVoteDoesNotBenefitFromAgreement) {
  // The paper observes MV precision stays flat as agreement grows; allow
  // generous slack but ensure it does not approach Surveyor.
  SurveyorClassifier surveyor_method;
  MajorityVoteClassifier mv;
  const EvalMetrics mv_high = harness_->Evaluate(mv, *labeled_, 19);
  const EvalMetrics s_high = harness_->Evaluate(surveyor_method, *labeled_, 19);
  EXPECT_GT(s_high.precision(), mv_high.precision());
}

TEST_F(EndToEndTest, FittedParametersReflectKnownBiases) {
  // "cute animals": positive statements should dominate (mu+ >> mu-),
  // matching the generating bias (0.030 vs 0.002 per author).
  const TypeId animal = world_->kb().TypeByName("animal").value();
  const PropertyTypeEvidence* cute = harness_->EvidenceFor(animal, "cute");
  ASSERT_NE(cute, nullptr);
  SurveyorClassifier surveyor_method;
  auto fit = surveyor_method.Fit(*cute);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit->params.mu_positive, fit->params.mu_negative);

  // "quiet celebrities" was generated with the inverse bias.
  const TypeId celebrity = world_->kb().TypeByName("celebrity").value();
  const PropertyTypeEvidence* quiet =
      harness_->EvidenceFor(celebrity, "quiet");
  ASSERT_NE(quiet, nullptr);
  auto quiet_fit = surveyor_method.Fit(*quiet);
  ASSERT_TRUE(quiet_fit.ok());
  EXPECT_GT(quiet_fit->params.mu_negative, quiet_fit->params.mu_positive);
}

TEST_F(EndToEndTest, BigCityPolarityTracksPopulation) {
  // Section 2 / Fig. 3(d): model polarity correlates with population.
  const TypeId city = world_->kb().TypeByName("city").value();
  const PropertyTypeEvidence* big = harness_->EvidenceFor(city, "big");
  ASSERT_NE(big, nullptr);
  SurveyorClassifier surveyor_method;
  auto fit = surveyor_method.Fit(*big);
  ASSERT_TRUE(fit.ok());

  std::vector<double> log_population;
  std::vector<double> posterior;
  for (size_t i = 0; i < big->entities.size(); ++i) {
    log_population.push_back(std::log(
        world_->kb().GetAttribute(big->entities[i], "population").value()));
    posterior.push_back(fit->responsibilities[i]);
  }
  EXPECT_GT(SpearmanCorrelation(log_population, posterior), 0.6);
}

TEST_F(EndToEndTest, UnmentionedCitiesClassifiedNotBig) {
  const TypeId city = world_->kb().TypeByName("city").value();
  const PropertyTypeEvidence* big = harness_->EvidenceFor(city, "big");
  ASSERT_NE(big, nullptr);
  SurveyorClassifier surveyor_method;
  auto fit = surveyor_method.Fit(*big);
  ASSERT_TRUE(fit.ok());
  int unmentioned = 0, negative = 0;
  for (size_t i = 0; i < big->entities.size(); ++i) {
    if (big->counts[i].total() != 0) continue;
    ++unmentioned;
    if (fit->responsibilities[i] < 0.5) ++negative;
  }
  ASSERT_GT(unmentioned, 10);
  EXPECT_GT(static_cast<double>(negative) / unmentioned, 0.9);
}

TEST_F(EndToEndTest, FullPipelineStatsConsistent) {
  SurveyorConfig config;
  config.min_statements = 100;
  auto result = Mine(config, *corpus_, world_->kb(), world_->lexicon());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_documents,
            static_cast<int64_t>(corpus_->size()));
  EXPECT_GT(result->stats.num_kept_property_type_pairs, 10);
  // Every kept pair covers all entities of its type.
  for (const PropertyTypeResult& pair : result->pairs) {
    EXPECT_EQ(pair.evidence.entities.size(),
              world_->kb().EntitiesOfType(pair.evidence.type).size());
  }
}

}  // namespace
}  // namespace surveyor
