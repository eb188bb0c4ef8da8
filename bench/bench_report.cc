// Writes a machine-readable performance snapshot (BENCH_pipeline.json) so
// the repo's perf trajectory is tracked in-tree: end-to-end pipeline wall
// time and throughput on a fixed synthetic corpus, the process's peak RSS
// from the obs resource sampler, and ns/op for the observability hot
// paths. Run via tools/run_bench.sh, which commits the refreshed snapshot.
//
//   bench_report [out.json]   (default: BENCH_pipeline.json)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "obs/log_ring.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "obs/resource_sampler.h"
#include "obs/trace.h"
#include "surveyor/api.h"
#include "util/profile_tag.h"

namespace surveyor {
namespace {

/// ns/op for `op` over `iterations` runs (one warm call first).
template <typename Fn>
double NanosPerOp(int iterations, Fn&& op) {
  op();
  bench::Stopwatch timer;
  for (int i = 0; i < iterations; ++i) op();
  return timer.ElapsedSeconds() * 1e9 / iterations;
}

int Run(const std::string& out_path) {
  // Fixed-seed corpus: the numbers stay comparable across commits.
  World world = World::Generate(MakeWebScaleWorldConfig(12, 23)).value();
  GeneratorOptions generator_options;
  generator_options.author_population = 8000;
  generator_options.seed = 7200;
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, generator_options).Generate();

  SurveyorConfig config;
  config.min_statements = 100;
  bench::Stopwatch timer;
  auto result = Mine(config, corpus, world.kb(), world.lexicon());
  const double wall_seconds = timer.ElapsedSeconds();
  SURVEYOR_CHECK(result.ok());
  const PipelineStats& stats = result->stats;

  const obs::ResourceSample resources = obs::SampleProcessResources();

  // Observability hot paths, measured inline — coarse but dependency-free
  // (bench/micro_benchmarks.cc has the google-benchmark versions).
  obs::MetricRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench_total");
  obs::Gauge* gauge = registry.GetGauge("bench_gauge");
  const double counter_ns = NanosPerOp(1 << 20, [&] { counter->Increment(); });
  const double gauge_ns = NanosPerOp(1 << 20, [&] { gauge->Set(1.0); });
  obs::Tracer::Global().SetEnabled(false);
  const double span_disabled_ns =
      NanosPerOp(1 << 18, [] { SURVEYOR_SPAN("bench"); });
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
  const double span_enabled_ns =
      NanosPerOp(1 << 16, [] { SURVEYOR_SPAN("bench"); });
  obs::Tracer::Global().SetEnabled(false);
  obs::LogRing ring;
  const double log_append_ns = NanosPerOp(
      1 << 16, [&] { ring.Append(LogSeverity::kInfo, "bench line"); });
  // Request scopes: disarmed (the serving fast path when tracing is off)
  // and fully sampled (span routing + the retention ring).
  obs::RequestTracerOptions disarmed_options;
  disarmed_options.sample_rate = 0.0;
  disarmed_options.slow_threshold_seconds = 0.0;
  obs::RequestTracer disarmed_tracer(disarmed_options);
  const double request_scope_disarmed_ns = NanosPerOp(1 << 16, [&] {
    obs::RequestScope scope(&disarmed_tracer, nullptr, "GET", "/bench");
  });
  obs::RequestTracerOptions sampled_options;
  sampled_options.sample_rate = 1.0;
  obs::RequestTracer sampled_tracer(sampled_options);
  const double request_scope_sampled_ns = NanosPerOp(1 << 14, [&] {
    obs::RequestScope scope(&sampled_tracer, nullptr, "GET", "/bench");
    SURVEYOR_SPAN("bench.child");
  });
  // The profiler's hot-path tax with the sampler off (the default).
  const double profile_scope_disarmed_ns =
      NanosPerOp(1 << 20, [] { SURVEYOR_PROFILE_SCOPE("bench"); });

  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("benchmark")
      .Value("pipeline.webscale12x23.authors8000");
  // Which binary produced these numbers (git sha, compiler, build type).
  obs::AppendBuildInfoJson(writer);
  writer.Key("pipeline")
      .BeginObject()
      .Key("wall_seconds")
      .Value(wall_seconds)
      .Key("documents")
      .Value(stats.num_documents)
      .Key("statements")
      .Value(stats.num_statements)
      .Key("opinions")
      .Value(stats.num_opinions)
      .Key("docs_per_second")
      .Value(wall_seconds > 0 ? stats.num_documents / wall_seconds : 0.0)
      .Key("statements_per_second")
      .Value(wall_seconds > 0 ? stats.num_statements / wall_seconds : 0.0)
      .Key("extraction_seconds")
      .Value(stats.extraction_seconds)
      .Key("grouping_seconds")
      .Value(stats.grouping_seconds)
      .Key("em_seconds")
      .Value(stats.em_seconds)
      .EndObject()
      .Key("process")
      .BeginObject()
      .Key("sampler_valid")
      .Value(resources.valid)
      .Key("peak_rss_bytes")
      .Value(resources.peak_rss_bytes)
      .Key("cpu_seconds")
      .Value(resources.cpu_seconds)
      .EndObject()
      .Key("obs_ns_per_op")
      .BeginObject()
      .Key("counter_increment")
      .Value(counter_ns)
      .Key("gauge_set")
      .Value(gauge_ns)
      .Key("span_disabled")
      .Value(span_disabled_ns)
      .Key("span_enabled")
      .Value(span_enabled_ns)
      .Key("log_ring_append")
      .Value(log_append_ns)
      .Key("request_scope_disarmed")
      .Value(request_scope_disarmed_ns)
      .Key("request_scope_sampled")
      .Value(request_scope_sampled_ns)
      .Key("profile_scope_disarmed")
      .Value(profile_scope_disarmed_ns)
      .EndObject()
      .EndObject();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << writer.str() << "\n";
  std::cout << "wrote " << out_path << ": " << wall_seconds << "s wall, "
            << static_cast<long long>(stats.num_documents) << " docs, peak RSS "
            << resources.peak_rss_bytes / 1e6 << " MB\n";
  return 0;
}

}  // namespace
}  // namespace surveyor

int main(int argc, char** argv) {
  // A chaos-armed environment (retries, quarantines, backoff sleeps)
  // invalidates every number this tool writes into the committed snapshot.
  if (std::getenv("SURVEYOR_FAULTS") != nullptr) {
    std::cerr << "bench_report: refusing to run with SURVEYOR_FAULTS set; "
                 "unset it and rerun\n";
    return 1;
  }
  // An armed profiler (SURVEYOR_PROFILE makes the CLI arm it; a live
  // /profilez window has the same effect) adds a 97 Hz signal storm to
  // every measured path — same refusal posture as armed faults.
  if (std::getenv("SURVEYOR_PROFILE") != nullptr) {
    std::cerr << "bench_report: refusing to run with SURVEYOR_PROFILE set; "
                 "unset it and rerun\n";
    return 1;
  }
  return surveyor::Run(argc > 1 ? argv[1] : "BENCH_pipeline.json");
}
