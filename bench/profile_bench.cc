// Writes BENCH_profile.json: the committed stage-attribution snapshot of
// the sampling profiler over the fixed bench corpus (the same world as
// BENCH_pipeline.json), plus the disarmed-overhead proof. This is the
// baseline the extraction-optimization work diffs against (ROADMAP item
// 1): if extraction's sample share drops, the flamegraph moved for real.
//
// Hard guards (exit 1):
//   - extraction-stage frames must hold >= 50% of samples (ISSUE 7
//     acceptance: the profiler must actually see the known hot stage);
//   - the disarmed ProfileScope tax on the per-sentence hot path must be
//     < 1% (same posture as the fault-point guard in micro_benchmarks).
//
//   profile_bench [out.json]   (default: BENCH_profile.json)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "obs/profiler.h"
#include "obs/stage.h"
#include "surveyor/api.h"
#include "text/annotator.h"
#include "text/tokenizer.h"
#include "util/profile_tag.h"

namespace surveyor {
namespace {

// Write-only target that keeps the tag-read benchmark from being
// optimized away (namespace scope: local set-but-unused triggers -Werror).
volatile bool tag_sink = false;

/// ns/op for `op` over `iterations` runs (one warm call first).
template <typename Fn>
double NanosPerOp(int iterations, Fn&& op) {
  op();
  bench::Stopwatch timer;
  for (int i = 0; i < iterations; ++i) op();
  return timer.ElapsedSeconds() * 1e9 / iterations;
}

int Run(const std::string& out_path) {
  if (!obs::Profiler::SupportedOnThisBuild()) {
    std::cerr << "profile_bench: profiler unsupported on this build "
                 "(sanitizer or platform); use a clean build dir\n";
    return 1;
  }

  // Fixed-seed corpus, identical to bench_report's, so the two committed
  // snapshots describe the same workload.
  World world = World::Generate(MakeWebScaleWorldConfig(12, 23)).value();
  GeneratorOptions generator_options;
  generator_options.author_population = 8000;
  generator_options.seed = 7200;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, generator_options).Generate();

  obs::StageTracker stage_tracker;
  SurveyorConfig config;
  config.min_statements = 100;
  config.stage_tracker = &stage_tracker;

  obs::ProfilerOptions profiler_options;
  profiler_options.stage_tracker = &stage_tracker;
  obs::Profiler& profiler = obs::Profiler::Global();
  SURVEYOR_CHECK_OK(profiler.Start(profiler_options));
  auto result = Mine(config, corpus, world.kb(), world.lexicon());
  auto profile = profiler.Stop();
  SURVEYOR_CHECK(result.ok());
  SURVEYOR_CHECK(profile.ok());

  double extraction_fraction = 0.0;
  for (const obs::StageAttribution& row : profile->stages) {
    if (row.stage == "extracting") extraction_fraction += row.fraction;
  }

  // Disarmed overhead: what the hot path pays for being profilable when
  // nobody profiles. A mined sentence crosses ~4 scopes (tokenize, match,
  // parse, extract); compare that against the sentence's real cost.
  const double scope_ns =
      NanosPerOp(1 << 20, [] { SURVEYOR_PROFILE_SCOPE("bench"); });
  const double tag_read_ns = NanosPerOp(
      1 << 20, [] { tag_sink = CurrentProfileTag() != nullptr; });
  TextAnnotator annotator(&world.kb(), &world.lexicon());
  std::vector<std::string> sentences;
  for (const RawDocument& doc : corpus) {
    for (const std::string& sentence : SplitSentences(doc.text)) {
      sentences.push_back(sentence);
    }
    if (sentences.size() >= 1024) break;
  }
  size_t index = 0;
  const double sentence_ns = NanosPerOp(1 << 14, [&] {
    annotator.AnnotateSentence(sentences[index++ % sentences.size()]);
  });
  const double scope_overhead_fraction = 4.0 * scope_ns / sentence_ns;

  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("benchmark")
      .Value("profile.webscale12x23.authors8000");
  obs::AppendBuildInfoJson(writer);
  writer.Key("profile")
      .BeginObject()
      .Key("samples")
      .Value(profile->samples)
      .Key("dropped")
      .Value(profile->dropped)
      .Key("duration_seconds")
      .Value(profile->duration_seconds)
      .Key("frequency_hz")
      .Value(profile->frequency_hz)
      .Key("distinct_stacks")
      .Value(static_cast<int64_t>(profile->folded.size()))
      .EndObject();
  writer.Key("stage_attribution").BeginArray();
  for (const obs::StageAttribution& row : profile->stages) {
    writer.BeginObject()
        .Key("stage")
        .Value(row.stage)
        .Key("tag")
        .Value(row.tag)
        .Key("samples")
        .Value(row.samples)
        .Key("fraction")
        .Value(row.fraction)
        .EndObject();
  }
  writer.EndArray();
  writer.Key("extraction_fraction").Value(extraction_fraction);
  writer.Key("disarmed_overhead")
      .BeginObject()
      .Key("profile_scope_ns")
      .Value(scope_ns)
      .Key("tag_read_ns")
      .Value(tag_read_ns)
      .Key("annotate_sentence_ns")
      .Value(sentence_ns)
      .Key("scope_overhead_fraction")
      .Value(scope_overhead_fraction)
      .EndObject()
      .EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << writer.str() << "\n";
  std::cout << "wrote " << out_path << ": " << profile->samples
            << " samples, extraction fraction " << extraction_fraction
            << ", disarmed scope overhead " << scope_overhead_fraction * 100
            << "%\n";

  if (extraction_fraction < 0.5) {
    std::cerr << "profile_bench: FAIL — extraction-stage frames hold "
              << extraction_fraction * 100
              << "% of samples, below the 50% acceptance floor\n";
    return 1;
  }
  if (!(scope_overhead_fraction < 0.01)) {
    std::cerr << "profile_bench: FAIL — disarmed ProfileScope overhead "
              << scope_overhead_fraction * 100
              << "% of the per-sentence hot path, above the 1% budget\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace surveyor

int main(int argc, char** argv) {
  // Armed faults perturb every measured path; an armed profiler would
  // measure its own signal storm. Both invalidate a committed snapshot.
  if (std::getenv("SURVEYOR_FAULTS") != nullptr) {
    std::cerr << "profile_bench: refusing to run with SURVEYOR_FAULTS set; "
                 "unset it and rerun\n";
    return 1;
  }
  if (std::getenv("SURVEYOR_PROFILE") != nullptr) {
    std::cerr << "profile_bench: refusing to run with SURVEYOR_PROFILE set "
                 "(the bench manages its own profile window); unset it and "
                 "rerun\n";
    return 1;
  }
  return surveyor::Run(argc > 1 ? argv[1] : "BENCH_profile.json");
}
