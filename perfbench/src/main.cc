// Surveyor's benchmark: one binary, three workloads, each a seeded run of
// the whole product cycle — mine a corpus into a snapshot, then serve a
// snapshot over HTTP — with the workload choosing the inputs and where
// the time goes (see perfbench/README.md).
//
//   surveyor_perfbench --workload mine|serve_hot|serve_mixed --seed N
//       --seconds S --trace 0|1 --workdir DIR [--scale tiny]
//       [--expect-hash HEX --expect-f1 F] [--corrupt mined|response]
//   surveyor_perfbench --print-reference --seed N --workdir DIR [--scale tiny]
//
// Prints the machine/config record and then, as the last line, the
// result: {"correct","attempted","failed","metrics"}.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mine_phase.h"
#include "obs/build_info.h"
#include "serve_phase.h"
#include "support.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

/// Open-loop arrival rate (requests/s over two connections): fixed, and
/// far below the ~20k req/s the stack sustains closed-loop on 4 vCPUs.
constexpr double kOpenLoopRate = 3000.0;
/// A run whose generator sent more than this late at p99 is invalid: a
/// stalled client must not pass as a fast server.
constexpr double kMaxGeneratorLagMs = 5.0;
/// Set-up is repeated and its median reported, so set-up time is steady.
constexpr int kSetupRepeats = 5;
/// Open-loop percentiles are taken per window of this many requests — one
/// second at the fixed rate, the serve_mixed swap interval, so each of its
/// windows holds exactly one swap — and the median over windows reported.
constexpr size_t kLatencyWindow = 3000;
/// Closed-loop CPU per request is taken per window of this many seconds.
constexpr double kCpuWindowSeconds = 0.25;
/// Idle swaps run for their share of the run, and at least this many.
constexpr int kMinIdleSwaps = 9;
/// The first mining batch warms the allocator and caches and is not
/// reported; at least this many batches follow it.
constexpr int kMinMineBatches = 3;
constexpr size_t kTrafficLength = 1 << 16;
constexpr size_t kRequestIds = 1 << 20;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  bool tiny = false;
  std::string expect_hash;
  std::optional<double> expect_f1;
  std::string corrupt;
  bool print_reference = false;
};

/// What distinguishes the workloads: the served snapshot, the traffic,
/// how the run's seconds are split, and when snapshots are swapped. Most
/// of the serving time goes where the bounded metrics come from: the
/// closed loop (CPU per request) and the swaps; the open loop, whose
/// latency is recorded without a bound, gets less, except on serve_mixed,
/// whose swaps run beside it.
struct Plan {
  bool synthetic_snapshot;
  TrafficMix mix;
  double mine_share;
  double open_share;
  double closed_share;
  double swap_share;     // idle swaps after the closed loop
  double swap_interval;  // swaps beside the open loop; 0: none there
};

std::optional<Plan> PlanFor(const std::string& workload) {
  if (workload == "mine") return Plan{false, TrafficMix::kUniformPoint, 0.35, 0.15, 0.25, 0.1, 0};
  if (workload == "serve_hot") return Plan{true, TrafficMix::kHotZipf, 0.15, 0.2, 0.4, 0.1, 0};
  if (workload == "serve_mixed") {
    return Plan{true, TrafficMix::kMixed, 0.15, 0.5, 0.25, 0, kLatencyWindow / kOpenLoopRate};
  }
  return std::nullopt;
}

int Usage(const std::string& why) {
  std::cerr << "surveyor_perfbench: " << why << "\n"
            << "usage: surveyor_perfbench --workload mine|serve_hot|serve_mixed"
               " --seed N --seconds S --trace 0|1 --workdir DIR [--scale tiny]"
               " [--expect-hash HEX --expect-f1 F] [--corrupt mined|response]\n";
  return 2;
}

/// Refuses runs whose numbers would mislead, like tools/run_bench.sh.
std::optional<std::string> Refusal() {
  for (const char* name : {"SURVEYOR_FAULTS", "SURVEYOR_FAULT_SEED"}) {
    if (std::getenv(name) != nullptr) {
      return std::string(name) + " is set: fault injection perturbs every measured path";
    }
  }
  if (std::getenv("SURVEYOR_PROFILE") != nullptr) {
    return std::string("SURVEYOR_PROFILE is set: the armed profiler perturbs every timing");
  }
  const surveyor::obs::BuildInfo& build = surveyor::obs::GetBuildInfo();
  if (!build.sanitizer.empty()) {
    return "sanitizer build (" + std::string(build.sanitizer) + ")";
  }
  if (build.build_type != "Release" && build.build_type != "RelWithDebInfo") {
    return "build type '" + std::string(build.build_type) + "' is not optimised";
  }
  return std::nullopt;
}

struct RunState {
  Args args;
  Plan plan;
  int threads = 1;
  Report report;
  MineInputs inputs;
  std::vector<MineBatch> batches;
  ServedRows served;
  std::unique_ptr<ServingStack> stack;
  std::vector<Request> traffic;
  double setup_mine_s = 0;
  double setup_serve_s = 0;

  std::string Path(const std::string& name) const { return args.workdir + "/" + name; }
};

void SetupMining(RunState& s, int repeats) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    s.inputs = MineInputs();
    const StealAwareTimer timer;
    s.inputs = SetupMine(s.args.seed, s.args.tiny, s.args.workdir);
    seconds.push_back(timer.UnstolenSeconds());
  }
  s.setup_mine_s = Median(seconds);
}

/// Runs batches until `budget` seconds have passed (and at least
/// `min_batches`), checking each batch's fingerprint and F1.
void MineBatches(RunState& s, double budget, int min_batches) {
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(s.batches.size()) < min_batches || SecondsSince(start) < budget) {
    const bool flip = s.args.corrupt == "mined" && s.batches.empty();
    s.batches.push_back(RunMineBatch(s.inputs, s.threads, s.Path("mined.surv"), flip, &s.report));
    const MineBatch& batch = s.batches.back();
    s.report.attempted += batch.documents;
    s.report.failed += batch.failed_documents;
    const std::string hash = Hex64(batch.hash);
    const std::string reference =
        s.args.expect_hash.empty() ? Hex64(s.batches.front().hash) : s.args.expect_hash;
    if (hash != reference) {
      s.report.Fail("mined fingerprint " + hash + " != reference " + reference);
    }
    if (s.args.expect_f1.has_value() && batch.f1 != *s.args.expect_f1) {
      s.report.Fail("mine_f1 " + std::to_string(batch.f1) + " != recorded " +
                    std::to_string(*s.args.expect_f1));
    }
    // Only the newest batch's rows are served; older ones would only
    // inflate the peak RSS being measured.
    if (s.batches.size() > 1) std::vector<OpinionRow>().swap(s.batches[s.batches.size() - 2].rows);
  }
}

void SetupServing(RunState& s, int repeats, bool timed_handler) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    s.stack.reset();
    s.served = ServedRows();
    const std::string store = s.Path("store" + std::to_string(r));
    std::filesystem::remove_all(store);
    const StealAwareTimer timer;
    s.served = s.plan.synthetic_snapshot
                   ? MakeSyntheticSnapshot(s.args.seed, s.args.tiny)
                   : RowsFromMined(s.batches.back().rows, s.Path("mined.surv"));
    s.stack = std::make_unique<ServingStack>(store, timed_handler, kRequestIds);
    const surveyor::Status started = s.stack->Start(s.served.image);
    seconds.push_back(timer.UnstolenSeconds());
    if (!started.ok()) throw std::runtime_error("serving start: " + started.ToString());
  }
  s.setup_serve_s = Median(seconds);
  s.traffic = BuildTraffic(s.served, s.plan.mix, s.args.seed, kTrafficLength);
}

LoadResult Load(RunState& s, double seconds, double rate, size_t first_request,
                bool tagged, double swap_interval = 0) {
  LoadOptions options;
  options.seconds = seconds;
  options.rate = rate;
  options.swap_interval = swap_interval;
  options.tag_requests = tagged;
  options.first_request = first_request;
  options.corrupt_first_body = s.args.corrupt == "response" && first_request == 0;
  options.window_seconds = rate > 0 ? kLatencyWindow / rate : kCpuWindowSeconds;
  LoadResult result = RunLoad(*s.stack, s.served, s.traffic, options, &s.report);
  s.report.attempted += result.attempted;
  s.report.failed += result.failed;
  return result;
}

double Rate(const RunState& s) { return s.args.tiny ? kOpenLoopRate / 3 : kOpenLoopRate; }

/// The open-loop generator must keep to its schedule for the run to count.
double CheckGeneratorLag(RunState& s, const LoadResult& open) {
  const double lag_p99 = Percentile(open.lag_ms, 0.99);
  if (lag_p99 > kMaxGeneratorLagMs) {
    s.report.Fail("open-loop generator lag p99 " + std::to_string(lag_p99) +
                  " ms exceeds " + std::to_string(kMaxGeneratorLagMs) + " ms");
  }
  return lag_p99;
}

void RecordConfig(RunState& s) {
  Report& r = s.report;
  r.Config("workload", s.args.workload);
  r.Config("seed", static_cast<double>(s.args.seed));
  r.Config("seconds", s.args.seconds);
  r.Config("trace", s.args.trace ? 1.0 : 0.0);
  r.Config("scale", s.args.tiny ? "tiny" : "full");
  r.Config("mining_threads", s.threads);
  r.Config("min_statements", static_cast<double>(s.inputs.min_statements));
  r.Config("corpus_documents", static_cast<double>(s.inputs.num_documents));
  r.Config("mine_batches", static_cast<double>(s.batches.size()));
  if (!s.batches.empty()) {
    r.Config("mined_opinions", static_cast<double>(s.batches.back().rows.size()));
    r.Config("mined_fingerprint", Hex64(s.batches.front().hash));
    r.Config("mined_f1", s.batches.front().f1);
  }
  r.Config("reference", s.args.expect_hash.empty() ? "none recorded for this seed"
                                                   : "recorded");
  r.Config("snapshot", s.plan.synthetic_snapshot ? "synthetic" : "mined");
  r.Config("snapshot_opinions", static_cast<double>(s.served.rows.size()));
  r.Config("snapshot_bytes", static_cast<double>(s.served.image.size()));
  r.Config("snapshot_provenance_pairs", static_cast<double>(s.served.provenance_pairs));
  const surveyor::obs::AdminServerOptions server;
  r.Config("server_workers", server.serve_workers);
  r.Config("server_handler_threads", server.handler_threads);
  r.Config("client_connections", 2);
  r.Config("open_loop_rate", Rate(s));
  r.Config("max_generator_lag_ms", kMaxGeneratorLagMs);
  r.Config("setup_repeats", s.args.trace ? 1 : kSetupRepeats);
}

void RunEndToEnd(RunState& s) {
  const double S = s.args.seconds;
  SetupMining(s, kSetupRepeats);
  MineBatches(s, s.plan.mine_share * S, 1 + kMinMineBatches);
  const double peak_rss_mb = PeakRssMb();
  SetupServing(s, kSetupRepeats, /*timed_handler=*/false);

  Load(s, 0.5, Rate(s), 0, false);  // warm-up: connections, cache, pages
  const LoadResult open =
      Load(s, s.plan.open_share * S, Rate(s), kTrafficLength / 4, false, s.plan.swap_interval);
  CheckGeneratorLag(s, open);
  const LoadResult closed = Load(s, s.plan.closed_share * S, 0, kTrafficLength / 2, false);
  LoadResult swaps = open;
  if (s.plan.swap_interval <= 0) {
    swaps = LoadResult();
    RunSwaps(*s.stack, s.served.image, kMinIdleSwaps, s.plan.swap_share * S, &swaps,
             &s.report);
    s.report.attempted += swaps.attempted;
    s.report.failed += swaps.failed;
  }

  std::vector<double> docs_per_s, raw_docs_per_s, cpu_ms_per_kdoc;
  for (size_t i = 1; i < s.batches.size(); ++i) {
    const MineBatch& b = s.batches[i];
    docs_per_s.push_back(static_cast<double>(b.documents) / b.unstolen_seconds);
    raw_docs_per_s.push_back(static_cast<double>(b.documents) / b.wall_seconds);
    cpu_ms_per_kdoc.push_back(b.cpu_seconds * 1e6 / static_cast<double>(b.documents));
  }
  Report& r = s.report;
  r.Metric("setup_s", s.setup_mine_s + s.setup_serve_s, "s");
  r.Metric("mine_docs_per_s", Median(docs_per_s), "docs/s");
  r.Metric("mine_cpu_ms_per_kdoc", Median(cpu_ms_per_kdoc), "ms");
  r.Metric("mine_peak_rss_mb", peak_rss_mb, "MB");
  r.Metric("mine_f1", s.batches.front().f1, "ratio");
  r.Metric("serve_cpu_us_per_req",
           QuietMedian(closed.window_cpu_us_per_req, closed.window_steal), "us");
  r.Metric("swap_ms", Median(swaps.swap_ms), "ms");
  r.Config("mine_docs_per_wall_s_with_steal", Median(raw_docs_per_s));
  r.Config("open_loop_requests", static_cast<double>(open.latency_ms.size()));
  // Open-loop latency is recorded, not reported with a bound: on a shared
  // virtual machine the host's wake-up latency, which is most of a ~60 us
  // p50, drifted by a quarter between sets of runs, and host stalls
  // (serve_hot, mine) and swap stalls (serve_mixed) moved p90 and p99 by
  // 2-20x from run to run.
  r.Config("open_loop_p50_ms", QuietMedian(open.window_p50_ms, open.window_steal));
  r.Config("open_loop_p90_ms", QuietMedian(open.window_p90_ms, open.window_steal));
  r.Config("open_loop_p99_ms", QuietMedian(open.window_p99_ms, open.window_steal));
  r.Config("open_loop_p50_ms_whole_phase", Percentile(open.latency_ms, 0.50));
  r.Config("open_loop_p99_ms_whole_phase", Percentile(open.latency_ms, 0.99));
  r.Config("open_loop_lag_ms_p99", Percentile(open.lag_ms, 0.99));
  r.Config("closed_loop_requests", static_cast<double>(closed.attempted));
  r.Config("closed_loop_req_per_s", static_cast<double>(closed.attempted) / closed.wall_seconds);
  r.Config("swaps", static_cast<double>(swaps.swap_ms.size()));
}

void RunTraced(RunState& s) {
  const double S = s.args.seconds;
  SetupMining(s, 1);
  MineBatches(s, 0, 1 + kMinMineBatches);
  std::vector<double> walls, write_ms;
  for (size_t i = 1; i < s.batches.size(); ++i) {
    walls.push_back(s.batches[i].wall_seconds);
    write_ms.push_back(s.batches[i].write_ms);
  }
  TraceMining(s.inputs, s.threads, s.batches.back(), Median(walls), &s.report);
  SetupServing(s, 1, /*timed_handler=*/true);

  Load(s, 0.5, Rate(s), 0, false);
  const LoadResult plain = Load(s, 0.5 * s.plan.closed_share * S, 0, kTrafficLength / 2, false);
  s.stack->set_timing(true);
  const LoadResult timed = Load(s, 0.5 * s.plan.closed_share * S, 0, kTrafficLength / 2, true);
  const LoadResult open =
      Load(s, 0.5 * s.plan.open_share * S, Rate(s), kTrafficLength / 4, true, s.plan.swap_interval);
  s.stack->set_timing(false);
  const double lag_p99 = CheckGeneratorLag(s, open);
  LoadResult swaps = open;
  if (s.plan.swap_interval <= 0) {
    swaps = LoadResult();
    RunSwaps(*s.stack, s.served.image, kMinIdleSwaps, 0, &swaps, &s.report);
    s.report.attempted += swaps.attempted;
    s.report.failed += swaps.failed;
  }

  Report& r = s.report;
  r.Metric("serving.snapshot_write_ms", Median(write_ms), "ms");
  r.Metric("serving.snapshot_bytes", static_cast<double>(s.batches.front().snapshot_bytes),
           "bytes");
  r.Metric("serving.publish_ms", Median(swaps.publish_ms), "ms");
  TraceIndex(*s.stack, s.traffic, s.served, &r);
  static const char* const kKinds[] = {"point", "type_scan", "batch"};
  for (int k = 0; k < 3; ++k) {
    r.Metric(std::string("serving.handler_us_p50.") + kKinds[k],
             Percentile(open.handler_us[k], 0.50), "us");
    r.Metric(std::string("serving.handler_us_p99.") + kKinds[k],
             Percentile(open.handler_us[k], 0.99), "us");
  }
  const double hits = static_cast<double>(s.stack->Counter("surveyor_query_cache_hits_total"));
  const double misses =
      static_cast<double>(s.stack->Counter("surveyor_query_cache_misses_total"));
  r.Metric("serving.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  r.Metric("obs.transport_us_p50", Percentile(open.transport_us, 0.50), "us");
  r.Metric("obs.transport_us_p99", Percentile(open.transport_us, 0.99), "us");
  r.Metric("obs.shed_total", static_cast<double>(s.stack->Counter("surveyor_http_shed_total")),
           "count");
  r.Metric("obs.parse_errors_total",
           static_cast<double>(s.stack->Counter("surveyor_http_parse_errors_total")), "count");
  r.Metric("bench.generator_lag_ms_p99", lag_p99, "ms");
  r.Metric("bench.open_loop_p50_ms", QuietMedian(open.window_p50_ms, open.window_steal), "ms");
  r.Metric("bench.open_loop_p90_ms", QuietMedian(open.window_p90_ms, open.window_steal), "ms");
  r.Metric("bench.open_loop_p99_ms", QuietMedian(open.window_p99_ms, open.window_steal), "ms");
  r.Metric("bench.trace_overhead",
           QuietMedian(timed.window_cpu_us_per_req, timed.window_steal) /
               QuietMedian(plain.window_cpu_us_per_req, plain.window_steal),
           "ratio");
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-reference") {
      args.print_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--scale") {
      args.tiny = value == "tiny";
    } else if (flag == "--expect-hash") {
      args.expect_hash = value;
    } else if (flag == "--expect-f1") {
      args.expect_f1 = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--corrupt") {
      args.corrupt = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (const auto refusal = Refusal()) {
    std::cerr << "surveyor_perfbench: refusing to run: " << *refusal << "\n";
    return 2;
  }
  if (args.workdir.empty()) return Usage("--workdir is required");
  std::filesystem::create_directories(args.workdir);

  RunState s;
  s.args = args;
  const StealAwareTimer run_timer;
  std::vector<double> probe_ms;
  for (int i = 0; i < 3; ++i) probe_ms.push_back(HostSpeedProbeMs());
  s.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (args.print_reference) {
    SetupMining(s, 1);
    MineBatches(s, 0, 1);
    std::cout << "{\"seed\": " << args.seed << ", \"hash\": \"" << Hex64(s.batches[0].hash)
              << "\", \"f1\": " << surveyor::StrFormat("%.17g", s.batches[0].f1)
              << ", \"documents\": " << s.inputs.num_documents << "}\n";
    return s.report.correct() ? 0 : 1;
  }
  const std::optional<Plan> plan = PlanFor(args.workload);
  if (!plan.has_value()) return Usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  s.plan = *plan;

  if (args.trace) {
    RunTraced(s);
  } else {
    RunEndToEnd(s);
  }
  s.stack.reset();
  RecordConfig(s);
  // How much of the run the host took: the context every wall-clock
  // figure needs on a shared machine.
  s.report.Config("host_steal_share",
                  1.0 - run_timer.UnstolenSeconds() / run_timer.WallSeconds());
  for (int i = 0; i < 3; ++i) probe_ms.push_back(HostSpeedProbeMs());
  s.report.Config("host_speed_probe_ms", Median(probe_ms));
  std::cout << s.report.RecordJson() << "\n" << s.report.ResultJson() << "\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "surveyor_perfbench: " << e.what() << "\n";
    return 1;
  }
}
