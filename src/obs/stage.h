#ifndef SURVEYOR_OBS_STAGE_H_
#define SURVEYOR_OBS_STAGE_H_

#include <atomic>
#include <chrono>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace surveyor {
namespace obs {

/// Readiness state machine of a mining process, advanced by every mining
/// run (surveyor::Mine) and served by the admin server's /readyz:
/// starting → extracting → fitting → serving/done. A scraper (or a load
/// balancer, once the opinion store serves traffic) treats serving/done as
/// ready and everything earlier as warming up.
enum class PipelineStage {
  kStarting = 0,
  kExtracting,
  kFitting,
  kServing,
  kDone,
};

/// Lower-case stage name ("starting", "extracting", ...).
std::string_view PipelineStageName(PipelineStage stage);

/// Thread-safe holder of the current PipelineStage plus per-stage wall
/// time, shared between the pipeline (writer) and the admin server
/// (reader). Stages may be revisited (e.g. a second Run on the same
/// tracker); seconds accumulate per stage name.
class StageTracker {
 public:
  StageTracker();
  StageTracker(const StageTracker&) = delete;
  StageTracker& operator=(const StageTracker&) = delete;

  PipelineStage stage() const SURVEYOR_EXCLUDES(mutex_);

  /// Lock-free mirror of stage() for readers that cannot take mutex_ —
  /// specifically the profiler's SIGPROF handler (a mutex in a signal
  /// handler deadlocks if the interrupted thread holds it). Relaxed: a
  /// sample landing one stage transition early or late is noise at 97 Hz.
  PipelineStage stage_relaxed() const {
    return static_cast<PipelineStage>(
        stage_atomic_.load(std::memory_order_relaxed));
  }

  /// Enters `stage`, closing the time account of the previous one.
  void SetStage(PipelineStage stage) SURVEYOR_EXCLUDES(mutex_);

  /// True once the process finished warming up (kServing or kDone).
  bool ready() const SURVEYOR_EXCLUDES(mutex_);

  /// Marks the process degraded (or clears the mark): it is serving, but
  /// some documents were quarantined or some pairs fell back to the SMV
  /// baseline (DESIGN.md §9). Degraded is orthogonal to the stage — a
  /// degraded process still reports ready; /healthz answers 200 with body
  /// "degraded" so probes keep the process in rotation while dashboards
  /// see the flag. Cleared by the pipeline at the start of every run.
  void SetDegraded(bool degraded) SURVEYOR_EXCLUDES(mutex_);

  /// Whether the last (or current) run degraded.
  bool degraded() const SURVEYOR_EXCLUDES(mutex_);

  /// Seconds since the current stage was entered.
  double SecondsInStage() const SURVEYOR_EXCLUDES(mutex_);

  /// Seconds since the tracker was constructed.
  double UptimeSeconds() const SURVEYOR_EXCLUDES(mutex_);

  /// Accumulated seconds per stage in first-entered order, the current
  /// stage counted up to now.
  std::vector<std::pair<std::string, double>> StageSeconds() const
      SURVEYOR_EXCLUDES(mutex_);

 private:
  using Clock = std::chrono::steady_clock;

  mutable Mutex mutex_;
  PipelineStage stage_ SURVEYOR_GUARDED_BY(mutex_) = PipelineStage::kStarting;
  /// Async-signal-safe copy of stage_, updated inside SetStage's critical
  /// section; the only member the profiler's signal handler may read.
  std::atomic<int> stage_atomic_{static_cast<int>(PipelineStage::kStarting)};
  bool degraded_ SURVEYOR_GUARDED_BY(mutex_) = false;
  /// Construction time; immutable afterwards.
  Clock::time_point start_;
  Clock::time_point stage_start_ SURVEYOR_GUARDED_BY(mutex_);
  /// (stage name, accumulated seconds) for every stage entered so far, in
  /// first-entered order; the current stage's entry excludes the open
  /// interval.
  std::vector<std::pair<std::string, double>> accumulated_
      SURVEYOR_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace surveyor

#endif  // SURVEYOR_OBS_STAGE_H_
