// Graceful-degradation tests (DESIGN.md §9): a pair whose EM fit fails
// falls back to the smoothed majority vote and is reported degraded; the
// rest of the run is untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "obs/stage.h"
#include "surveyor/api.h"

namespace surveyor {
namespace {

class DegradationTest : public testing::Test {
 protected:
  DegradationTest() : world_(World::Generate(MakeTinyWorldConfig()).value()) {
    GeneratorOptions options;
    options.author_population = 8000;
    options.seed = 77;
    corpus_ = CorpusGenerator(&world_, options).Generate();
  }

  SurveyorConfig BaseConfig() const {
    SurveyorConfig config;
    config.min_statements = 20;
    // @N one-shot fault triggers pick a deterministic victim only when
    // pairs are fitted sequentially.
    config.num_threads = 1;
    return config;
  }

  World world_;
  std::vector<RawDocument> corpus_;
};

TEST_F(DegradationTest, InjectedFitFaultDegradesOnlyTheVictimPair) {
  const SurveyorConfig clean_config = BaseConfig();
  auto clean = Mine(clean_config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_GE(clean->pairs.size(), 2u);

  SurveyorConfig chaos_config = BaseConfig();
  chaos_config.fault_spec = "em_fit:@2";  // force the second pair to fail
  auto degraded = Mine(chaos_config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_EQ(degraded->pairs.size(), clean->pairs.size());

  size_t degraded_count = 0;
  for (size_t p = 0; p < degraded->pairs.size(); ++p) {
    const PropertyTypeResult& pair = degraded->pairs[p];
    const PropertyTypeResult& reference = clean->pairs[p];
    ASSERT_EQ(pair.evidence.property, reference.evidence.property);
    if (pair.degraded) {
      ++degraded_count;
      EXPECT_NE(pair.degraded_reason.find("em_fit"), std::string::npos)
          << pair.degraded_reason;
      // The fallback is the smoothed majority vote over the pair's own
      // evidence; EM never ran.
      EXPECT_EQ(pair.em_iterations, 0);
      ASSERT_EQ(pair.posterior.size(), pair.evidence.counts.size());
      for (size_t i = 0; i < pair.posterior.size(); ++i) {
        const EvidenceCounts& counts = pair.evidence.counts[i];
        const double smv = (counts.positive + 0.5) /
                           (counts.positive + counts.negative + 1.0);
        EXPECT_DOUBLE_EQ(pair.posterior[i], smv);
        EXPECT_EQ(pair.polarity[i], DecidePolarity(pair.posterior[i]));
      }
    } else {
      // Every healthy pair is bit-identical to the fault-free run.
      EXPECT_EQ(pair.degraded_reason, "");
      EXPECT_EQ(pair.em_iterations, reference.em_iterations);
      EXPECT_EQ(pair.posterior, reference.posterior);
      EXPECT_EQ(pair.polarity, reference.polarity);
      EXPECT_EQ(pair.params.agreement, reference.params.agreement);
    }
  }
  EXPECT_EQ(degraded_count, 1u);

  EXPECT_EQ(degraded->stats.num_degraded_pairs, 1);
  EXPECT_EQ(degraded->stats.num_faults_injected, 1);
  EXPECT_TRUE(degraded->report.degradation.degraded);
  EXPECT_EQ(degraded->report.degradation.pairs_degraded, 1);
  ASSERT_EQ(degraded->report.degradation.degraded_pairs.size(), 1u);
  EXPECT_NE(degraded->report.degradation.degraded_pairs[0].reason.find(
                "em_fit"),
            std::string::npos);

  // The clean run reports no degradation at all.
  EXPECT_FALSE(clean->report.degradation.degraded);
  EXPECT_EQ(clean->stats.num_degraded_pairs, 0);
  EXPECT_EQ(clean->stats.num_faults_injected, 0);
}

TEST_F(DegradationTest, DegradedPairsStillEmitOpinions) {
  SurveyorConfig config = BaseConfig();
  config.fault_spec = "em_fit:@1";
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok()) << result.status();
  const PropertyTypeResult& victim = result->pairs.front();
  ASSERT_TRUE(victim.degraded);
  int emitted = 0;
  for (const Polarity polarity : victim.polarity) {
    if (polarity != Polarity::kNeutral) ++emitted;
  }
  EXPECT_GT(emitted, 0);
}

TEST_F(DegradationTest, DegradationOffMakesFitFaultsFatal) {
  SurveyorConfig config = BaseConfig();
  config.fault_spec = "em_fit:@1";
  config.degrade_failed_fits = false;
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("em_fit"), std::string::npos);
}

TEST_F(DegradationTest, ConfigErrorsStayFatalEvenWithDegradationOn) {
  SurveyorConfig config = BaseConfig();
  config.degrade_failed_fits = true;
  config.em.agreement_grid = {0.3};  // invalid: must lie in (0.5, 1)
  auto result = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DegradationTest, StageTrackerCarriesTheDegradedFlag) {
  obs::StageTracker tracker;
  SurveyorConfig config = BaseConfig();
  config.stage_tracker = &tracker;
  config.fault_spec = "em_fit:@1";
  auto degraded = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(tracker.degraded());

  // A subsequent clean run clears the flag.
  config.fault_spec.clear();
  auto clean = Mine(config, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(tracker.degraded());
}

}  // namespace
}  // namespace surveyor
