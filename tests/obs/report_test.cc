#include "obs/report.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "surveyor/api.h"
#include "text/document_source.h"

namespace surveyor {
namespace obs {
namespace {

/// One deterministic tiny-scenario run shared by the report tests:
/// single-threaded so span ids, task counts and orderings are stable.
class ReportTest : public testing::Test {
 protected:
  ReportTest() : world_(World::Generate(MakeTinyWorldConfig()).value()) {
    GeneratorOptions options;
    options.author_population = 8000;
    options.seed = 77;
    corpus_ = CorpusGenerator(&world_, options).Generate();
    config_.min_statements = 20;
    config_.num_threads = 1;
  }

  World world_;
  std::vector<RawDocument> corpus_;
  SurveyorConfig config_;
};

TEST_F(ReportTest, EmAggregateKeepsWorstFitsSortedAndBounded) {
  EmAggregateDiagnostics aggregate;
  aggregate.max_worst_fits = 2;
  for (int i = 0; i < 4; ++i) {
    EmFitDiagnostics fit;
    fit.type_name = "t";
    fit.property = "p" + std::to_string(i);
    fit.iterations = 3;
    fit.converged = (i != 1);
    fit.chi2_positive = static_cast<double>(i);
    fit.chi2_negative = 0.5;
    aggregate.Add(std::move(fit));
  }
  EXPECT_EQ(aggregate.fits, 4);
  EXPECT_EQ(aggregate.converged, 3);
  EXPECT_EQ(aggregate.total_iterations, 12);
  EXPECT_DOUBLE_EQ(aggregate.mean_iterations(), 3.0);
  EXPECT_DOUBLE_EQ(aggregate.max_chi2, 3.0);
  ASSERT_EQ(aggregate.worst_fits.size(), 2u);
  EXPECT_EQ(aggregate.worst_fits[0].property, "p3");
  EXPECT_EQ(aggregate.worst_fits[1].property, "p2");
}

TEST_F(ReportTest, RunPopulatesReport) {
  auto result = Mine(config_, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok()) << result.status();
  const RunReport& report = result->report;

  // The acceptance bar: a real run exposes a rich metric set.
  EXPECT_GE(report.metrics.size(), 15u);

  // The span tree covers every pipeline stage, rooted at pipeline.run.
  std::set<std::string> names;
  uint64_t root_id = 0;
  for (const TraceSpan& span : report.spans) {
    names.insert(span.name);
    if (span.name == "pipeline.run") root_id = span.id;
  }
  EXPECT_TRUE(names.count("pipeline.run"));
  EXPECT_TRUE(names.count("extract"));
  EXPECT_TRUE(names.count("extract.shard"));
  EXPECT_TRUE(names.count("group"));
  EXPECT_TRUE(names.count("em"));
  EXPECT_TRUE(names.count("em.fit"));
  ASSERT_NE(root_id, 0u);
  for (const TraceSpan& span : report.spans) {
    if (span.name == "extract" || span.name == "group" ||
        span.name == "em") {
      EXPECT_EQ(span.parent_id, root_id) << span.name;
    }
  }
  EXPECT_EQ(report.dropped_spans, 0);

  // PipelineStats is derived from the registry, so struct and report
  // counters must agree exactly.
  const PipelineStats& stats = result->stats;
  EXPECT_EQ(static_cast<double>(stats.num_documents),
            report.MetricValue("surveyor_extract_documents_total"));
  EXPECT_EQ(static_cast<double>(stats.num_sentences),
            report.MetricValue("surveyor_extract_sentences_total"));
  EXPECT_EQ(static_cast<double>(stats.parse_failure_count),
            report.MetricValue("surveyor_extract_parse_failures_total"));
  EXPECT_EQ(static_cast<double>(stats.num_statements),
            report.MetricValue("surveyor_extract_statements_total"));
  EXPECT_EQ(static_cast<double>(stats.num_negative_statements),
            report.MetricValue("surveyor_extract_negative_statements_total"));
  EXPECT_EQ(static_cast<double>(stats.num_kept_property_type_pairs),
            report.MetricValue("surveyor_group_pairs_kept_total"));
  EXPECT_EQ(static_cast<double>(stats.num_property_type_pairs),
            report.MetricValue("surveyor_group_property_type_pairs_total"));
  EXPECT_EQ(static_cast<double>(stats.num_opinions),
            report.MetricValue("surveyor_infer_opinions_total"));

  // Per-pattern statement counts partition the statement total.
  int64_t by_pattern = 0;
  ASSERT_EQ(stats.statements_by_pattern.size(), 4u);
  for (const auto& [pattern, count] : stats.statements_by_pattern) {
    by_pattern += count;
  }
  EXPECT_EQ(by_pattern, stats.num_statements);

  // Aggregate EM diagnostics cover every kept pair.
  EXPECT_EQ(report.em.fits, stats.num_kept_property_type_pairs);
  EXPECT_GT(report.em.total_iterations, 0);
  EXPECT_FALSE(report.em.worst_fits.empty());
  EXPECT_GE(report.em.max_chi2, report.em.mean_worst_chi2());

  // Stage timings are recorded both as stats and stage_seconds.
  EXPECT_GT(stats.extraction_seconds, 0.0);
  EXPECT_EQ(report.stage_seconds.at("extract"), stats.extraction_seconds);
  EXPECT_EQ(report.stage_seconds.at("group"), stats.grouping_seconds);
  EXPECT_EQ(report.stage_seconds.at("em"), stats.em_seconds);
}

TEST_F(ReportTest, CleanRunReportsZeroedDegradationSection) {
  auto result = Mine(config_, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok()) << result.status();
  const DegradationReport& degradation = result->report.degradation;
  EXPECT_FALSE(degradation.degraded);
  EXPECT_EQ(degradation.retries, 0);
  EXPECT_EQ(degradation.faults_injected, 0);
  EXPECT_EQ(degradation.docs_quarantined, 0);
  EXPECT_EQ(degradation.pairs_degraded, 0);
  EXPECT_TRUE(degradation.degraded_pairs.empty());
  EXPECT_TRUE(degradation.notes.empty());

  // The section is always present in the JSON artifact, zeroed or not.
  const std::string json = result->report.ToJson();
  EXPECT_NE(json.find("\"degradation\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded\":false"), std::string::npos);
}

// Both Mine overloads: the in-memory corpus and the same documents as a
// stream.
TEST_F(ReportTest, RunAndRunStreamingDeriveIdenticalStats) {
  auto batch = Mine(config_, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(batch.ok()) << batch.status();
  VectorDocumentSource source(&corpus_);
  auto streaming = Mine(config_, source, world_.kb(), world_.lexicon());
  ASSERT_TRUE(streaming.ok()) << streaming.status();

  const PipelineStats& a = batch->stats;
  const PipelineStats& b = streaming->stats;
  EXPECT_EQ(a.num_documents, b.num_documents);
  EXPECT_EQ(a.num_sentences, b.num_sentences);
  EXPECT_EQ(a.num_parsed_sentences, b.num_parsed_sentences);
  EXPECT_EQ(a.parse_failure_count, b.parse_failure_count);
  EXPECT_EQ(a.num_statements, b.num_statements);
  EXPECT_EQ(a.num_negative_statements, b.num_negative_statements);
  EXPECT_EQ(a.statements_by_pattern, b.statements_by_pattern);
  EXPECT_EQ(a.num_entity_property_pairs, b.num_entity_property_pairs);
  EXPECT_EQ(a.num_property_type_pairs, b.num_property_type_pairs);
  EXPECT_EQ(a.num_kept_property_type_pairs, b.num_kept_property_type_pairs);
  EXPECT_EQ(a.num_opinions, b.num_opinions);
}

/// Replaces the run-dependent values (wall times, thread indices, idle
/// time, floating-point diagnostics) with `null` so the remaining JSON —
/// structure, metric names and every integer counter — is byte-stable.
std::string Normalize(std::string json) {
  static const std::regex seconds_key(
      "(\"[A-Za-z_.]*seconds\":)-?[0-9][-+.eE0-9]*");
  json = std::regex_replace(json, seconds_key, "$1null");
  static const std::regex thread_key("(\"thread\":)[0-9]+");
  json = std::regex_replace(json, thread_key, "$1null");
  static const std::regex idle_gauge(
      "(\"name\":\"[a-z_]*idle_seconds\",\"kind\":\"gauge\",\"value\":)"
      "-?[0-9][-+.eE0-9]*");
  json = std::regex_replace(json, idle_gauge, "$1null");
  // Any remaining non-integer number is a measured quantity (likelihoods,
  // chi-squares, sums); integers are exact counts and must match.
  static const std::regex fractional(
      "-?[0-9]+\\.[0-9]+([eE][-+]?[0-9]+)?|-?[0-9]+[eE][-+]?[0-9]+");
  json = std::regex_replace(json, fractional, "null");
  return json;
}

TEST_F(ReportTest, GoldenJsonReport) {
  auto result = Mine(config_, corpus_, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok()) << result.status();
  result->report.label = "tiny";
  const std::string normalized = Normalize(result->report.ToJson());

  const std::string golden_path =
      std::string(SURVEYOR_OBS_TESTDATA_DIR) + "/tiny_report.json";
  if (std::getenv("UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << normalized << "\n";
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run with UPDATE_GOLDEN=1 to create it)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string golden = buffer.str();
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_EQ(normalized, golden)
      << "run report JSON drifted; if intentional, regenerate with "
         "UPDATE_GOLDEN=1";
}

}  // namespace
}  // namespace obs
}  // namespace surveyor
