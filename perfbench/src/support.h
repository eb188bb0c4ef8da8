// Small shared helpers of the benchmark: clocks, process CPU and RSS,
// order statistics, and the result record every phase writes into.
#ifndef SURVEYOR_PERFBENCH_SUPPORT_H_
#define SURVEYOR_PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return SecondsBetween(from, Clock::now());
}

/// User + system CPU seconds of the whole process (getrusage, microsecond
/// resolution — /proc ticks are too coarse for per-request costs).
double ProcessCpuSeconds();

/// Peak resident set size of the process so far, in MB (1e6 bytes).
double PeakRssMb();

/// Current resident set size in MB, or 0 when /proc is unavailable.
double CurrentRssMb();

/// CPU seconds the hypervisor stole from this machine's CPUs since boot,
/// summed over CPUs (/proc/stat "steal"; 0 where unavailable). On a
/// shared host it is how long runnable work waited for the host.
double StolenCpuSeconds();

/// A stopwatch for a shared host: Unstolen() is the elapsed wall time less
/// the mean per-CPU time the hypervisor stole in it, so work that waited
/// for the host is not charged to the program. Without steal the two agree.
class StealAwareTimer {
 public:
  StealAwareTimer();
  double WallSeconds() const { return SecondsSince(start_); }
  double UnstolenSeconds() const;

 private:
  Clock::time_point start_;
  double stolen_at_start_;
};

/// Milliseconds of thread CPU time a fixed piece of work — hashing,
/// sorting, string keys in a hash map; none of it Surveyor's code — takes
/// on each CPU at once (median over CPUs). Across runs it tracks how fast
/// the host lets this machine compute.
double HostSpeedProbeMs();

/// The median of `values[i]` over the half of the indexes with the least
/// `steal[i]` (all of them when fewer than two): the figure from the
/// least-disturbed windows of a shared host.
double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal);

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

/// Nearest-rank percentile `q` in [0, 1] of `values` (0 when empty).
double Percentile(std::vector<double> values, double q);

/// 64-bit FNV-1a, for output fingerprints.
class Fnv1a {
 public:
  void Add(const void* data, size_t size);
  void Add(const std::string& text) {
    Add(text.data(), text.size());
    const char separator = '\0';
    Add(&separator, 1);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string Hex64(uint64_t value);

/// Everything a run reports: metrics in emission order, operation counts,
/// failed checks, and the machine/config record.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a failed output check; the run is then not correct.
  void Fail(const std::string& why);
  void Config(const std::string& key, const std::string& value) {
    config_.push_back({key, value, false});
  }
  void Config(const std::string& key, double value);

  int64_t attempted = 0;
  int64_t failed = 0;

  bool correct() const { return failures_.empty() && failed == 0; }

  /// The record line (machine, config, failures) and the result line.
  std::string RecordJson() const;
  std::string ResultJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  struct ConfigEntry {
    std::string key;
    std::string text;
    bool number;
  };
  std::vector<ConfigEntry> config_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // SURVEYOR_PERFBENCH_SUPPORT_H_
