// The serving half of every workload: the served rows (a synthetic
// snapshot, or the one just mined), the real AdminServer + QueryService +
// ReloadService stack, the open- and closed-loop HTTP clients with their
// response checks, snapshot swaps, and the traced serving measurements.
#ifndef SURVEYOR_PERFBENCH_SERVE_PHASE_H_
#define SURVEYOR_PERFBENCH_SERVE_PHASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "mine_phase.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "obs/stage.h"
#include "serving/generation_store.h"
#include "serving/opinion_index.h"
#include "serving/query_service.h"
#include "serving/reload_service.h"
#include "support.h"

namespace perfbench {

/// The rows a snapshot serves, kept by the benchmark as the oracle every
/// response is checked against.
struct ServedRows {
  struct Row {
    uint32_t entity = 0;
    uint32_t property = 0;
    uint32_t block = 0;
    double posterior = 0.5;
    surveyor::Polarity polarity = surveyor::Polarity::kNeutral;
  };
  /// One (type, property) block and how many of its rows affirm.
  struct Block {
    uint32_t type = 0;
    uint32_t property = 0;
    int64_t affirming = 0;
  };
  std::vector<std::string> entities;
  std::vector<std::string> types;
  std::vector<std::string> properties;
  std::vector<Row> rows;
  std::vector<Block> blocks;
  /// entity << 32 | property -> row.
  std::unordered_map<uint64_t, uint32_t> row_by_pair;
  std::unordered_map<std::string, uint32_t> entity_index;
  std::unordered_map<std::string, uint32_t> property_index;
  /// The snapshot bytes.
  std::string image;
  int64_t provenance_pairs = 0;
};

/// A synthetic snapshot of at least 400k opinions (about 1k in `tiny`),
/// with provenance on a share of its pairs, built with SnapshotWriter.
ServedRows MakeSyntheticSnapshot(uint64_t seed, bool tiny);

/// The rows of a mined snapshot, whose bytes are read from `path`.
ServedRows RowsFromMined(const std::vector<OpinionRow>& mined,
                         const std::string& path);

enum class TrafficMix {
  kUniformPoint,  // point GETs, uniform over every served pair
  kHotZipf,       // point GETs, Zipf over a hot set that fits the cache
  kMixed,         // 98% uniform point GETs, 1% type scans, 1% 64-query batches
};

struct Request {
  enum Kind { kPoint = 0, kTypeScan = 1, kBatch = 2 } kind = kPoint;
  std::string target;
  std::string body;  // POST body for batches
  uint32_t row = 0;
  uint32_t block = 0;
  std::vector<uint32_t> batch_rows;
};

std::vector<Request> BuildTraffic(const ServedRows& served, TrafficMix mix,
                                  uint64_t seed, size_t count);

/// The serving stack as `surveyor_cli serve --generations` wires it.
/// With `timed_handler`, /v1/query is mounted through a wrapper that
/// times QueryService::Handle per request id (the traced run).
class ServingStack {
 public:
  ServingStack(const std::string& store_dir, bool timed_handler,
               size_t max_request_ids);
  ~ServingStack();
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// Publishes `image` as the first generation, loads it and starts.
  surveyor::Status Start(const std::string& image);
  int port() const { return server_->port(); }
  surveyor::serving::GenerationStore& store() { return *store_; }
  surveyor::serving::OpinionIndex& index() { return *index_; }
  int64_t Counter(const std::string& name);

  /// Takes the handler nanoseconds recorded for request id `rid`, or -1
  /// when none was recorded.
  int64_t HandlerNanos(size_t rid);
  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  bool timing() const { return timing_.load(std::memory_order_relaxed); }

 private:
  surveyor::obs::MetricRegistry registry_;
  surveyor::obs::StageTracker stage_;
  std::unique_ptr<surveyor::serving::OpinionIndex> index_;
  std::unique_ptr<surveyor::serving::QueryService> query_;
  std::unique_ptr<surveyor::serving::GenerationStore> store_;
  std::unique_ptr<surveyor::serving::ReloadService> reload_;
  std::vector<std::atomic<int64_t>> handler_nanos_;
  std::atomic<bool> timing_{false};
  std::unique_ptr<surveyor::obs::AdminServer> server_;
};

/// Per-request outcome of a load phase.
struct LoadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_seconds = 0.0;
  std::vector<double> latency_ms;    // from the scheduled send (open loop)
  /// Per window of LoadOptions::window_seconds: open-loop percentiles,
  /// CPU per completed request, and CPU seconds the host stole.
  std::vector<double> window_p50_ms;
  std::vector<double> window_p90_ms;
  std::vector<double> window_p99_ms;
  std::vector<double> window_cpu_us_per_req;
  std::vector<double> window_steal;
  std::vector<double> lag_ms;        // generator lateness (open loop)
  std::vector<double> transport_us;  // client time minus handler time
  std::vector<double> handler_us[3];  // per Request::Kind
  std::vector<double> swap_ms;
  std::vector<double> publish_ms;
};

struct LoadOptions {
  double seconds = 1.0;
  /// Open loop at this rate when > 0; closed loop otherwise.
  double rate = 0.0;
  /// Republish + reload every this many seconds during the phase (0: no).
  double swap_interval = 0.0;
  /// Append the request id so the timed handler can be matched.
  bool tag_requests = false;
  /// Self-test hook: corrupt the first response body before its check.
  bool corrupt_first_body = false;
  size_t first_request = 0;
  /// Length of the measurement windows the phase is split into.
  double window_seconds = 1.0;
};

/// Two keep-alive connections, each with at most one request in flight.
/// Every response's status and body are checked against `served`.
LoadResult RunLoad(ServingStack& stack, const ServedRows& served,
                   const std::vector<Request>& traffic,
                   const LoadOptions& options, Report* report);

/// Republish + POST /v1/admin/reload cycles on an idle server, for
/// `seconds` and at least `min_count` of them.
void RunSwaps(ServingStack& stack, const std::string& image, int min_count,
              double seconds, LoadResult* into, Report* report);

/// The traced-run serving measurements that run in-process: Snapshot
/// open, generation load, and replays of `traffic` against the index.
void TraceIndex(ServingStack& stack, const std::vector<Request>& traffic,
                const ServedRows& served, Report* report);

}  // namespace perfbench

#endif  // SURVEYOR_PERFBENCH_SERVE_PHASE_H_
