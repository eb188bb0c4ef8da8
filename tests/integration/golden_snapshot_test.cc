// Golden snapshot gate: fixed-seed worlds must mine to the same snapshot
// bytes whatever the thread count and whichever Mine overload reads the
// corpus. Every image is also pinned to a content hash, so a refactor of
// the mining path that changes any served byte (opinions, posteriors,
// provenance links) fails here. Re-pin only for a deliberate output change,
// and say why in the change description.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "serving/snapshot.h"
#include "surveyor/api.h"
#include "text/document_source.h"

namespace surveyor {
namespace {

/// FNV-1a, 64-bit: a content hash with no platform dependence.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct GoldenWorld {
  const char* name;
  WorldConfig world;
  double author_population;
  int64_t min_statements;
  /// Fnv1a64 of the snapshot image Mine(config, corpus) writes.
  uint64_t pinned_hash;
};

void PrintTo(const GoldenWorld& golden, std::ostream* os) {
  *os << golden.name;
}

std::string SnapshotImage(const PipelineResult& result,
                          const KnowledgeBase& kb) {
  serving::SnapshotWriter writer;
  writer.set_label("golden");
  const Status added = writer.AddResult(result, kb);
  EXPECT_TRUE(added.ok()) << added.ToString();
  return writer.Serialize();
}

class GoldenSnapshotTest : public testing::TestWithParam<GoldenWorld> {};

TEST_P(GoldenSnapshotTest, ThreadCountAndOverloadNeverChangeTheBytes) {
  const GoldenWorld& golden = GetParam();
  const World world = World::Generate(golden.world).value();
  GeneratorOptions generator;
  generator.author_population = golden.author_population;
  generator.seed = 99;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, generator).Generate();

  for (const int threads : {1, 2, 4}) {
    SurveyorConfig config;
    config.min_statements = golden.min_statements;
    config.max_provenance_samples = 3;
    config.num_threads = threads;
    config.progress_interval_seconds = 0;

    auto from_corpus = Mine(config, corpus, world.kb(), world.lexicon());
    ASSERT_TRUE(from_corpus.ok()) << from_corpus.status().ToString();
    ASSERT_FALSE(from_corpus->Opinions().empty());
    ASSERT_FALSE(from_corpus->provenance.empty());
    EXPECT_EQ(Fnv1a64(SnapshotImage(*from_corpus, world.kb())),
              golden.pinned_hash)
        << golden.name << ": Mine(config, corpus) at " << threads
        << " threads";

    VectorDocumentSource source(&corpus);
    auto from_source = Mine(config, source, world.kb(), world.lexicon());
    ASSERT_TRUE(from_source.ok()) << from_source.status().ToString();
    EXPECT_EQ(Fnv1a64(SnapshotImage(*from_source, world.kb())),
              golden.pinned_hash)
        << golden.name << ": Mine(config, source) at " << threads
        << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, GoldenSnapshotTest,
    testing::Values(
        GoldenWorld{"paper", MakePaperWorldConfig(), 800.0, 100,
                    0x04cfd733d78134b4ULL},
        GoldenWorld{"webscale", MakeWebScaleWorldConfig(12, 23), 1500.0, 100,
                    0x899d87a58de4823fULL}),
    [](const testing::TestParamInfo<GoldenWorld>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace surveyor
