// End-to-end chaos tests (DESIGN.md §9): the acceptance scenario of the
// fault-tolerance layer. A streaming run with a 1% injected document-read
// fault rate plus one forced EM divergence must complete, keep every
// non-degraded pair identical to the fault-free run, and account for all
// of it in PipelineStats and the run report.
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "surveyor/api.h"
#include "text/document.h"
#include "text/document_source.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/mutex.h"

namespace surveyor {
namespace {

/// Yields `healthy` documents, then ends the stream with an error — the
/// shape of a corpus whose backing store died mid-read.
class TruncatedSource : public DocumentSource {
 public:
  TruncatedSource(const std::vector<RawDocument>* corpus, size_t healthy)
      : corpus_(corpus), healthy_(healthy) {}

  std::optional<RawDocument> Next() override {
    MutexLock lock(mutex_);
    if (next_ >= healthy_ || next_ >= corpus_->size()) return std::nullopt;
    return (*corpus_)[next_++];
  }

  Status status() const override {
    MutexLock lock(mutex_);
    return next_ >= healthy_ ? Status::Internal("backing store vanished")
                             : Status::OK();
  }

 private:
  const std::vector<RawDocument>* corpus_;
  const size_t healthy_;
  mutable Mutex mutex_;
  size_t next_ SURVEYOR_GUARDED_BY(mutex_) = 0;
};

class ChaosIntegrationTest : public testing::Test {
 protected:
  ChaosIntegrationTest()
      : world_(World::Generate(MakeTinyWorldConfig()).value()) {
    GeneratorOptions options;
    options.author_population = 8000;
    options.seed = 77;
    corpus_ = CorpusGenerator(&world_, options).Generate();
    // Unique per process: ctest runs the fixture's tests concurrently, and
    // a shared path would be rewritten under a sibling's streaming read.
    corpus_path_ = testing::TempDir() + "/chaos_corpus_" +
                   std::to_string(::getpid()) + ".tsv";
    SURVEYOR_CHECK(SaveCorpusToFile(corpus_, corpus_path_).ok());
  }

  SurveyorConfig BaseConfig() const {
    SurveyorConfig config;
    config.min_statements = 20;
    // Single-threaded keeps the fault trigger stream deterministic, so the
    // @N one-shot picks the same EM victim on every run.
    config.num_threads = 1;
    return config;
  }

  World world_;
  std::vector<RawDocument> corpus_;
  std::string corpus_path_;
};

TEST_F(ChaosIntegrationTest, AcceptanceRunSurvivesFaultsWithFullAccounting) {
  // Fault-free reference run.
  FileDocumentSource clean_source(corpus_path_);
  auto clean = Mine(BaseConfig(), clean_source, world_.kb(), world_.lexicon());
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_GE(clean->pairs.size(), 2u);

  // Chaos run: 1% transient read failures plus one forced EM divergence.
  const std::string ambient_spec = FaultInjector::Global().spec();
  SurveyorConfig config = BaseConfig();
  config.fault_spec = "doc_read:0.01,em_fit:@2";
  config.fault_seed = 1234;
  FileDocumentSource chaotic_source(corpus_path_);
  auto chaotic = Mine(config, chaotic_source, world_.kb(), world_.lexicon());
  ASSERT_TRUE(chaotic.ok()) << chaotic.status();
  ASSERT_TRUE(chaotic_source.status().ok());

  // Retries hid every read fault: no document was lost.
  EXPECT_EQ(chaotic->stats.num_documents, clean->stats.num_documents);
  EXPECT_EQ(chaotic->stats.num_statements, clean->stats.num_statements);
  EXPECT_EQ(chaotic->stats.num_docs_quarantined, 0);
  EXPECT_EQ(chaotic->stats.source_truncated, 0);

  // Full accounting: every injected fault is either a recovered retry
  // (doc_read) or the one degraded pair (em_fit).
  EXPECT_GT(chaotic->stats.num_faults_injected, 0);
  EXPECT_EQ(chaotic->stats.num_faults_injected,
            chaotic->stats.num_retries + 1);
  EXPECT_EQ(chaotic->stats.num_degraded_pairs, 1);
  EXPECT_TRUE(chaotic->report.degradation.degraded);
  EXPECT_EQ(chaotic->report.degradation.retries, chaotic->stats.num_retries);
  EXPECT_EQ(chaotic->report.degradation.pairs_degraded, 1);
  ASSERT_EQ(chaotic->report.degradation.degraded_pairs.size(), 1u);

  // Every non-degraded pair is identical to the fault-free run.
  ASSERT_EQ(chaotic->pairs.size(), clean->pairs.size());
  size_t degraded_count = 0;
  for (size_t p = 0; p < chaotic->pairs.size(); ++p) {
    const PropertyTypeResult& pair = chaotic->pairs[p];
    const PropertyTypeResult& reference = clean->pairs[p];
    EXPECT_EQ(pair.evidence.counts, reference.evidence.counts);
    if (pair.degraded) {
      ++degraded_count;
      continue;
    }
    EXPECT_EQ(pair.posterior, reference.posterior);
    EXPECT_EQ(pair.polarity, reference.polarity);
    EXPECT_EQ(pair.em_iterations, reference.em_iterations);
  }
  EXPECT_EQ(degraded_count, 1u);

  // The run's fault scope restored whatever was armed before it — possibly
  // an environment-armed chaos profile, possibly nothing.
  EXPECT_EQ(FaultInjector::Global().spec(), ambient_spec);
}

TEST_F(ChaosIntegrationTest, CorruptLinesQuarantineInsteadOfFailingTheRun) {
  const std::string path = testing::TempDir() + "/corrupt_corpus_" +
                           std::to_string(::getpid()) + ".tsv";
  {
    std::ifstream in(corpus_path_);
    std::ofstream out(path);
    std::string line;
    int copied = 0;
    while (std::getline(in, line)) {
      out << line << "\n";
      // Sprinkle corrupt records through the file.
      if (++copied % 50 == 0) out << "corrupt record without tabs\n";
    }
    out << "trailing garbage\n";
  }

  FileDocumentSourceOptions source_options;
  source_options.quarantine_corrupt = true;
  FileDocumentSource source(path, source_options);
  auto result = Mine(BaseConfig(), source, world_.kb(), world_.lexicon());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(source.status().ok());

  EXPECT_EQ(result->stats.num_documents,
            static_cast<int64_t>(corpus_.size()));
  EXPECT_GT(result->stats.num_docs_quarantined, 0);
  EXPECT_EQ(result->stats.num_docs_quarantined,
            source.counters().quarantined_documents);
  EXPECT_TRUE(result->report.degradation.degraded);
  EXPECT_EQ(result->report.degradation.docs_quarantined,
            result->stats.num_docs_quarantined);
  EXPECT_GT(result->stats.num_opinions, 0);
}

TEST_F(ChaosIntegrationTest, TruncatedSourceIsReportedNotSilent) {
  TruncatedSource source(&corpus_, corpus_.size() / 2);
  auto result = Mine(BaseConfig(), source, world_.kb(), world_.lexicon());
  // The run still completes over the documents it got...
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.num_documents,
            static_cast<int64_t>(corpus_.size() / 2));
  // ...but the truncation is loud: counter, degraded flag, and a note.
  EXPECT_EQ(result->stats.source_truncated, 1);
  EXPECT_TRUE(result->report.degradation.degraded);
  ASSERT_EQ(result->report.degradation.notes.size(), 1u);
  EXPECT_NE(result->report.degradation.notes[0].find("truncated"),
            std::string::npos);
  EXPECT_NE(result->report.degradation.notes[0].find("backing store"),
            std::string::npos);
}

}  // namespace
}  // namespace surveyor
