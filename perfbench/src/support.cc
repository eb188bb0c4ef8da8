#include "support.h"

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "obs/resource_sampler.h"

namespace perfbench {
namespace {

std::string FullPrecision(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string Kernel() {
  utsname name{};
  if (uname(&name) != 0) return "unknown";
  return std::string(name.sysname) + " " + name.release + " " + name.machine;
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

double CurrentRssMb() {
  return surveyor::obs::SampleProcessResources().rss_bytes / 1e6;
}

double StolenCpuSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
         steal = 0;
  if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
        steal) ||
      cpu != "cpu") {
    return 0.0;
  }
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

StealAwareTimer::StealAwareTimer()
    : start_(Clock::now()), stolen_at_start_(StolenCpuSeconds()) {}

double StealAwareTimer::UnstolenSeconds() const {
  const double wall = WallSeconds();
  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  const double stolen = (StolenCpuSeconds() - stolen_at_start_) / cpus;
  return std::max(0.1 * wall, wall - stolen);
}

namespace {

uint64_t ProbeWork(uint64_t seed) {
  std::vector<uint32_t> values(1 << 18);
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (uint32_t& v : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<uint32_t>(x);
  }
  std::sort(values.begin(), values.end());
  std::unordered_map<std::string, uint64_t> counts;
  for (size_t i = 0; i < values.size(); i += 4) {
    counts[std::to_string(values[i] % 20000)] += i;
  }
  uint64_t sum = 0;
  for (const auto& [key, count] : counts) sum += key.size() * count;
  return sum + values[values.size() / 2];
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

double HostSpeedProbeMs() {
  // Published so the compiler cannot drop the work.
  static std::atomic<uint64_t> sink{0};
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> ms(cpus);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < cpus; ++t) {
    threads.emplace_back([&, t] {
      const double start = ThreadCpuMs();
      sink.fetch_add(ProbeWork(t + 1), std::memory_order_relaxed);
      ms[t] = ThreadCpuMs() - start;
    });
  }
  for (std::thread& thread : threads) thread.join();
  return Median(ms);
}

double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  const size_t keep = values.size() < 2 ? values.size() : values.size() / 2;
  std::vector<double> quiet;
  for (size_t i = 0; i < keep; ++i) quiet.push_back(values[order[i]]);
  return Median(quiet);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Fnv1a::Add(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::string Hex64(uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void Report::Fail(const std::string& why) {
  // Keep the record readable when a check fails on every request.
  if (failures_.size() < 20) failures_.push_back(why);
  if (failures_.size() == 20) failures_.push_back("(further failures omitted)");
}

void Report::Config(const std::string& key, double value) {
  config_.push_back({key, FullPrecision(value), true});
}

std::string Report::RecordJson() const {
  surveyor::obs::JsonWriter writer;
  writer.BeginObject().Key("machine").BeginObject();
  writer.Key("nproc").Value(
      static_cast<int64_t>(std::thread::hardware_concurrency()));
  writer.Key("cpu_model").Value(CpuModel());
  writer.Key("kernel").Value(Kernel());
  surveyor::obs::AppendBuildInfoJson(writer);
  writer.EndObject().Key("config").BeginObject();
  for (const ConfigEntry& entry : config_) {
    writer.Key(entry.key);
    if (entry.number) {
      writer.RawValue(entry.text);
    } else {
      writer.Value(entry.text);
    }
  }
  writer.EndObject().Key("failures").BeginArray();
  for (const std::string& failure : failures_) writer.Value(failure);
  writer.EndArray().EndObject();
  return writer.str();
}

std::string Report::ResultJson() const {
  surveyor::obs::JsonWriter writer;
  writer.BeginObject()
      .Key("correct")
      .Value(correct())
      .Key("attempted")
      .Value(attempted)
      .Key("failed")
      .Value(failed)
      .Key("metrics")
      .BeginObject();
  for (const Entry& entry : metrics_) {
    writer.Key(entry.name)
        .BeginObject()
        .Key("value")
        .RawValue(FullPrecision(entry.value))
        .Key("unit")
        .Value(entry.unit)
        .EndObject();
  }
  writer.EndObject().EndObject();
  return writer.str();
}

}  // namespace perfbench
