#include "serve_phase.h"

#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "http_client.h"
#include "serving/snapshot.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using surveyor::Polarity;

constexpr int kConnections = 2;
constexpr size_t kBatchSize = 64;
constexpr size_t kScanLimit = 100;  // QueryServiceOptions::max_results
constexpr size_t kHotSetSize = 1024;

std::string UrlEncode(std::string_view text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u) || c == '-' || c == '_' || c == '.') {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 15]);
    }
  }
  return out;
}

void AppendJsonString(std::string_view text, std::string* out) {
  out->push_back('"');
  for (const char c : text) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

uint64_t PairKey(uint32_t entity, uint32_t property) {
  return static_cast<uint64_t>(entity) << 32 | property;
}

uint32_t Intern(const std::string& name, std::vector<std::string>* names,
                std::unordered_map<std::string, uint32_t>* index) {
  auto [it, inserted] =
      index->emplace(name, static_cast<uint32_t>(names->size()));
  if (inserted) names->push_back(name);
  return it->second;
}

/// Finishes the block table and the pair index once `rows` is complete.
void IndexRows(ServedRows* served) {
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> block_of;
  for (ServedRows::Row& row : served->rows) {
    const uint32_t type = row.block;  // carries the type until here
    auto [it, inserted] = block_of.emplace(
        std::make_pair(type, row.property),
        static_cast<uint32_t>(served->blocks.size()));
    if (inserted) served->blocks.push_back({type, row.property, 0});
    row.block = it->second;
    if (row.polarity == Polarity::kPositive) {
      ++served->blocks[row.block].affirming;
    }
  }
  served->row_by_pair.reserve(served->rows.size());
  for (uint32_t i = 0; i < served->rows.size(); ++i) {
    const ServedRows::Row& row = served->rows[i];
    served->row_by_pair.emplace(PairKey(row.entity, row.property), i);
  }
}

/// One opinion object as a response renders it.
struct Parsed {
  std::string_view entity;
  std::string_view property;
  std::string_view polarity;
  double posterior = -1;
};

std::string_view StringField(std::string_view object, std::string_view key) {
  const size_t at = object.find(key);
  if (at == std::string_view::npos) return {};
  const size_t start = at + key.size();
  const size_t end = object.find('"', start);
  return end == std::string_view::npos ? std::string_view()
                                       : object.substr(start, end - start);
}

/// Splits a /v1 body into its opinion objects; provenance and error
/// entries carry no "entity" key, so an error entry shortens the list.
std::vector<Parsed> ParseOpinions(std::string_view body) {
  std::vector<Parsed> parsed;
  constexpr std::string_view kOpen = "{\"entity\":\"";
  size_t at = body.find(kOpen);
  while (at != std::string_view::npos) {
    const size_t next = body.find(kOpen, at + kOpen.size());
    const std::string_view object = body.substr(
        at, next == std::string_view::npos ? std::string_view::npos : next - at);
    Parsed p;
    p.entity = StringField(object, "\"entity\":\"");
    p.property = StringField(object, "\"property\":\"");
    p.polarity = StringField(object, "\"polarity\":\"");
    const size_t posterior = object.find("\"posterior\":");
    if (posterior != std::string_view::npos) {
      const std::string number(object.substr(posterior + 12, 32));
      p.posterior = std::strtod(number.c_str(), nullptr);
    }
    parsed.push_back(p);
    at = next;
  }
  return parsed;
}

/// Checks one rendered opinion against its source row; returns the row.
bool MatchRow(const Parsed& p, const ServedRows& served, uint32_t* row_id,
              std::string* why) {
  auto entity = served.entity_index.find(std::string(p.entity));
  auto property = served.property_index.find(std::string(p.property));
  if (entity == served.entity_index.end() ||
      property == served.property_index.end()) {
    *why = "unknown pair in response: " + std::string(p.entity);
    return false;
  }
  auto row = served.row_by_pair.find(PairKey(entity->second, property->second));
  if (row == served.row_by_pair.end()) {
    *why = "pair not in snapshot: " + std::string(p.entity);
    return false;
  }
  const ServedRows::Row& expected = served.rows[row->second];
  const std::string_view polarity =
      expected.polarity == Polarity::kPositive ? "+" : "-";
  if (p.polarity != polarity ||
      !(std::fabs(p.posterior - expected.posterior) <= 1e-9)) {
    *why = "wrong opinion for " + std::string(p.entity) + "/" +
           std::string(p.property);
    return false;
  }
  *row_id = row->second;
  return true;
}

bool CheckResponse(const Request& request, int status, std::string_view body,
                   const ServedRows& served, std::string* why) {
  if (status != 200) {
    *why = "HTTP status " + std::to_string(status) + " for " + request.target;
    return false;
  }
  const std::vector<Parsed> parsed = ParseOpinions(body);
  uint32_t row = 0;
  switch (request.kind) {
    case Request::kPoint:
      if (parsed.size() != 1 || !MatchRow(parsed[0], served, &row, why)) {
        if (why->empty()) *why = "malformed point answer";
        return false;
      }
      if (row != request.row) {
        *why = "point answer for another pair";
        return false;
      }
      return true;
    case Request::kTypeScan: {
      const size_t expected = std::min<size_t>(
          kScanLimit,
          static_cast<size_t>(served.blocks[request.block].affirming));
      if (parsed.size() != expected) {
        *why = "type scan returned " + std::to_string(parsed.size()) +
               " of " + std::to_string(expected);
        return false;
      }
      double previous = 2.0;
      for (const Parsed& p : parsed) {
        if (!MatchRow(p, served, &row, why)) return false;
        if (served.rows[row].block != request.block ||
            served.rows[row].polarity != Polarity::kPositive ||
            p.posterior > previous) {
          *why = "type scan out of block or order";
          return false;
        }
        previous = p.posterior;
      }
      return true;
    }
    case Request::kBatch:
      if (parsed.size() != request.batch_rows.size()) {
        *why = "batch answered " + std::to_string(parsed.size()) + " of " +
               std::to_string(request.batch_rows.size());
        return false;
      }
      for (size_t i = 0; i < parsed.size(); ++i) {
        if (!MatchRow(parsed[i], served, &row, why)) return false;
        if (row != request.batch_rows[i]) {
          *why = "batch entry out of order";
          return false;
        }
      }
      return true;
  }
  return false;
}

/// Sleeps to just before `when`, then spins: sleep wake-ups alone are late
/// by tens of microseconds, which would show up as generator lag.
void WaitUntil(Clock::time_point when) {
  const Clock::time_point spin_from = when - std::chrono::microseconds(100);
  if (Clock::now() < spin_from) std::this_thread::sleep_until(spin_from);
  while (Clock::now() < when) {
  }
}

/// Keeps every CPU out of idle for its lifetime with one SCHED_IDLE
/// spinner per CPU — the user-space form of a guest's idle=poll. Any
/// runnable thread preempts a spinner at once, so the serving threads
/// lose nothing; but a CPU that never halts needs no hypervisor wake-up,
/// whose cost on a virtual machine varies with the host's load and would
/// otherwise dominate latency and CPU per request. CpuSeconds() is what
/// the spinners burned, so it can be left out of the program's CPU.
class IdlePoller {
 public:
  IdlePoller() {
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < cpus; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  double CpuSeconds() {
    double total = 0;
    for (std::thread& thread : threads_) {
      clockid_t clock;
      timespec ts{};
      if (pthread_getcpuclockid(thread.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return total;
  }
  ~IdlePoller() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& thread : threads_) thread.join();
  }
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

std::string TaggedTarget(const Request& request, size_t rid) {
  const char separator =
      request.target.find('?') == std::string::npos ? '?' : '&';
  return request.target + separator + "rid=" + std::to_string(rid);
}

/// One publish of `image` and the POST /v1/admin/reload that swaps it in.
void SwapOnce(ServingStack& stack, HttpClient& client, const std::string& image,
              LoadResult* into, std::vector<std::string>* failures) {
  Clock::time_point start = Clock::now();
  auto published = stack.store().PublishImage(image);
  into->publish_ms.push_back(SecondsSince(start) * 1e3);
  ++into->attempted;
  if (!published.ok()) {
    ++into->failed;
    failures->push_back("publish: " + published.status().ToString());
    return;
  }
  std::string body;
  const StealAwareTimer timer;
  const int status = client.Send("POST", "/v1/admin/reload", "", &body);
  into->swap_ms.push_back(timer.UnstolenSeconds() * 1e3);
  if (status != 200 || stack.index().generation_id() != *published) {
    ++into->failed;
    failures->push_back("reload answered " + std::to_string(status) +
                        ", serving generation " +
                        std::to_string(stack.index().generation_id()));
  }
}

}  // namespace

ServedRows MakeSyntheticSnapshot(uint64_t seed, bool tiny) {
  static const char* const kProperties[] = {
      "big",     "cute",   "safe",      "cheap",    "famous",   "quiet",
      "old",     "friendly", "dangerous", "beautiful", "crowded", "expensive",
      "healthy", "modern", "rare",      "tall"};
  const int num_types = tiny ? 2 : 16;
  const int properties_per_type = tiny ? 3 : 10;
  const int entities_per_type = tiny ? 200 : 2560;

  surveyor::Rng rng(seed ^ 0x5e7d5eedULL);
  std::string tag;
  for (int i = 0; i < 3; ++i) tag.push_back(static_cast<char>('a' + rng.UniformInt(26)));

  ServedRows served;
  surveyor::serving::SnapshotWriter writer;
  writer.set_label("perfbench synthetic");
  std::unordered_map<std::string, uint32_t> type_index;
  for (int t = 0; t < num_types; ++t) {
    const std::string type = surveyor::StrFormat("kind%02d", t);
    const uint32_t type_id = Intern(type, &served.types, &type_index);
    for (int p = 0; p < properties_per_type; ++p) {
      const std::string property = kProperties[(t + p) % 16];
      const uint32_t property_id =
          Intern(property, &served.properties, &served.property_index);
      for (int e = 0; e < entities_per_type; ++e) {
        const std::string entity = surveyor::StrFormat("%s%02dx%05d", tag.c_str(), t, e);
        const uint32_t entity_id =
            Intern(entity, &served.entities, &served.entity_index);
        double posterior = rng.Uniform(0.02, 0.98);
        if (std::fabs(posterior - 0.5) < 0.01) posterior += 0.02;
        const Polarity polarity =
            posterior > 0.5 ? Polarity::kPositive : Polarity::kNegative;
        surveyor::serving::SnapshotOpinion opinion;
        opinion.entity = entity;
        opinion.type = type;
        opinion.property = property;
        opinion.posterior = posterior;
        opinion.polarity = polarity;
        const surveyor::Status added = writer.Add(opinion);
        if (!added.ok()) throw std::runtime_error(added.ToString());
        // Like a `mine --provenance` snapshot: a share of pairs link back
        // to supporting statements.
        if (rng.Uniform() < 0.1) {
          std::vector<surveyor::StatementRef> refs(3);
          for (surveyor::StatementRef& ref : refs) {
            ref.doc_id = static_cast<int64_t>(rng.UniformInt(1000000));
            ref.sentence_index = static_cast<int>(rng.UniformInt(8));
            ref.positive = rng.Uniform() < posterior;
          }
          writer.AddProvenance(entity, type, property, std::move(refs));
          ++served.provenance_pairs;
        }
        served.rows.push_back({entity_id, property_id, type_id, posterior, polarity});
      }
    }
  }
  IndexRows(&served);
  served.image = writer.Serialize();
  return served;
}

ServedRows RowsFromMined(const std::vector<OpinionRow>& mined,
                         const std::string& path) {
  ServedRows served;
  std::unordered_map<std::string, uint32_t> type_index;
  for (const OpinionRow& row : mined) {
    served.rows.push_back(
        {Intern(row.entity, &served.entities, &served.entity_index),
         Intern(row.property, &served.properties, &served.property_index),
         Intern(row.type, &served.types, &type_index), row.posterior,
         row.polarity});
  }
  IndexRows(&served);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  served.image = bytes.str();
  return served;
}

std::vector<Request> BuildTraffic(const ServedRows& served, TrafficMix mix,
                                  uint64_t seed, size_t count) {
  surveyor::Rng rng(seed ^ 0x7aff1cULL);
  const size_t num_rows = served.rows.size();
  std::vector<uint32_t> hot;
  std::vector<double> hot_cdf;
  if (mix == TrafficMix::kHotZipf) {
    double total = 0;
    for (size_t r = 0; r < std::min(kHotSetSize, num_rows); ++r) {
      hot.push_back(static_cast<uint32_t>(rng.UniformInt(num_rows)));
      total += 1.0 / static_cast<double>(r + 1);
      hot_cdf.push_back(total);
    }
    for (double& c : hot_cdf) c /= total;
  }
  auto point_target = [&](uint32_t row) {
    const ServedRows::Row& r = served.rows[row];
    return "/v1/query?entity=" + UrlEncode(served.entities[r.entity]) +
           "&property=" + UrlEncode(served.properties[r.property]);
  };
  std::vector<Request> traffic(count);
  for (Request& request : traffic) {
    const double kind = mix == TrafficMix::kMixed ? rng.Uniform() : 0.0;
    if (kind < 0.98) {
      uint32_t row;
      if (mix == TrafficMix::kHotZipf) {
        const double u = rng.Uniform();
        const size_t rank = static_cast<size_t>(
            std::lower_bound(hot_cdf.begin(), hot_cdf.end(), u) - hot_cdf.begin());
        row = hot[std::min(rank, hot.size() - 1)];
      } else {
        row = static_cast<uint32_t>(rng.UniformInt(num_rows));
      }
      request.kind = Request::kPoint;
      request.row = row;
      request.target = point_target(row);
    } else if (kind < 0.99) {
      request.kind = Request::kTypeScan;
      request.block = static_cast<uint32_t>(rng.UniformInt(served.blocks.size()));
      const ServedRows::Block& block = served.blocks[request.block];
      request.target = "/v1/query?type=" + UrlEncode(served.types[block.type]) +
                       "&property=" + UrlEncode(served.properties[block.property]);
    } else {
      request.kind = Request::kBatch;
      request.target = "/v1/query/batch";
      request.body = "{\"queries\":[";
      for (size_t i = 0; i < kBatchSize; ++i) {
        const auto row = static_cast<uint32_t>(rng.UniformInt(num_rows));
        const ServedRows::Row& r = served.rows[row];
        request.batch_rows.push_back(row);
        request.body += i == 0 ? "{\"entity\":" : ",{\"entity\":";
        AppendJsonString(served.entities[r.entity], &request.body);
        request.body += ",\"property\":";
        AppendJsonString(served.properties[r.property], &request.body);
        request.body += "}";
      }
      request.body += "]}";
    }
  }
  return traffic;
}

ServingStack::ServingStack(const std::string& store_dir, bool timed_handler,
                           size_t max_request_ids)
    : handler_nanos_(timed_handler ? max_request_ids : 0) {
  surveyor::serving::OpinionIndexOptions index_options;
  index_options.metrics = &registry_;
  index_ = std::make_unique<surveyor::serving::OpinionIndex>(index_options);
  query_ = std::make_unique<surveyor::serving::QueryService>(
      index_.get(), &stage_, &registry_);
  surveyor::serving::GenerationStoreOptions store_options;
  store_options.metrics = &registry_;
  store_ = std::make_unique<surveyor::serving::GenerationStore>(store_dir,
                                                                store_options);
  reload_ = std::make_unique<surveyor::serving::ReloadService>(
      store_.get(), index_.get(), &registry_);
  surveyor::obs::AdminServerOptions admin_options;
  admin_options.profiler_metrics = &registry_;
  server_ = std::make_unique<surveyor::obs::AdminServer>(&registry_, &stage_,
                                                         nullptr, admin_options);
  if (timed_handler) {
    server_->AddHandler("/v1/query", [this](std::string_view method,
                                            std::string_view target,
                                            std::string_view body) {
      if (!timing()) return query_->Handle(method, target, body);
      const Clock::time_point start = Clock::now();
      surveyor::obs::AdminResponse response =
          query_->Handle(method, target, body);
      const int64_t nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - start)
                                .count();
      const size_t at = target.find("rid=");
      if (at != std::string_view::npos) {
        const size_t rid = std::strtoull(target.data() + at + 4, nullptr, 10);
        handler_nanos_[rid % handler_nanos_.size()].store(
            nanos + 1, std::memory_order_relaxed);
      }
      return response;
    });
  } else {
    query_->Register(server_.get());
  }
  reload_->Register(server_.get());
}

ServingStack::~ServingStack() { server_->Stop(); }

surveyor::Status ServingStack::Start(const std::string& image) {
  SURVEYOR_RETURN_IF_ERROR(store_->Open());
  auto published = store_->PublishImage(image);
  if (!published.ok()) return published.status();
  SURVEYOR_RETURN_IF_ERROR(reload_->ReloadLatest());
  stage_.SetStage(surveyor::obs::PipelineStage::kServing);
  return server_->Start();
}

int64_t ServingStack::Counter(const std::string& name) {
  return registry_.GetCounter(name)->Value();
}

int64_t ServingStack::HandlerNanos(size_t rid) {
  if (handler_nanos_.empty()) return -1;
  const int64_t stored =
      handler_nanos_[rid % handler_nanos_.size()].exchange(0,
                                                           std::memory_order_relaxed);
  return stored - 1;
}

LoadResult RunLoad(ServingStack& stack, const ServedRows& served,
                   const std::vector<Request>& traffic,
                   const LoadOptions& options, Report* report) {
  struct PerConnection {
    LoadResult result;
    std::vector<std::string> failures;
  };
  std::vector<PerConnection> connections(kConnections);
  const bool open_loop = options.rate > 0;
  const size_t total =
      open_loop ? static_cast<size_t>(options.rate * options.seconds) : 0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(open_loop ? 1.0 / options.rate : 0.0));
  std::atomic<bool> stop{false};
  std::atomic<int64_t> completed{0};
  // Open-loop latencies by schedule slot, so windows are spans of time.
  std::vector<double> slot_latency_ms(total, -1.0);
  IdlePoller poller;

  // The program's CPU: the process's, less what the idle spinners burned.
  auto program_cpu = [&poller] { return ProcessCpuSeconds() - poller.CpuSeconds(); };
  const double cpu_start = program_cpu();
  const double steal_start = StolenCpuSeconds();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      PerConnection& mine = connections[static_cast<size_t>(t)];
      LoadResult& result = mine.result;
      HttpClient client(stack.port());
      client.Connect();
      std::string body;
      std::string why;
      Clock::time_point previous_done = start;
      WaitUntil(start);
      for (size_t i = static_cast<size_t>(t);; i += kConnections) {
        Clock::time_point scheduled = start;
        if (open_loop) {
          if (i >= total) break;
          scheduled = start + static_cast<int64_t>(i) * interval;
          WaitUntil(scheduled);
        } else if (stop.load(std::memory_order_relaxed)) {
          break;
        }
        const size_t rid = options.first_request + i;
        const Request& request = traffic[rid % traffic.size()];
        const std::string target = options.tag_requests
                                       ? TaggedTarget(request, rid)
                                       : request.target;
        const Clock::time_point sent = Clock::now();
        const int status =
            client.Send(request.kind == Request::kBatch ? "POST" : "GET",
                        target, request.body, &body);
        const Clock::time_point done = Clock::now();
        ++result.attempted;
        if (open_loop) {
          slot_latency_ms[i] = SecondsBetween(scheduled, done) * 1e3;
          result.lag_ms.push_back(
              SecondsBetween(std::max(scheduled, previous_done), sent) * 1e3);
        }
        previous_done = done;
        completed.fetch_add(1, std::memory_order_relaxed);
        if (options.corrupt_first_body && i == 0) {
          const size_t at = body.find("\"polarity\":\"");
          if (at != std::string::npos) {
            char& c = body[at + 12];
            c = c == '+' ? '-' : '+';
          }
        }
        why.clear();
        if (!CheckResponse(request, status, body, served, &why)) {
          ++result.failed;
          if (mine.failures.size() < 5) mine.failures.push_back(why);
        }
        if (options.tag_requests) {
          const int64_t handler = stack.HandlerNanos(rid);
          if (handler >= 0) {
            result.handler_us[request.kind].push_back(handler * 1e-3);
            result.transport_us.push_back(SecondsBetween(sent, done) * 1e6 -
                                          handler * 1e-3);
          }
        }
      }
    });
  }

  // Republishes and swaps beside the readers, at a fixed interval.
  PerConnection swapper;
  std::thread swap_thread;
  std::mutex swap_mutex;
  std::condition_variable swap_wake;
  bool swap_done = false;
  if (options.swap_interval > 0) {
    swap_thread = std::thread([&] {
      HttpClient client(stack.port());
      client.Connect();
      std::unique_lock<std::mutex> lock(swap_mutex);
      Clock::time_point next = start;
      for (;;) {
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(options.swap_interval));
        if (swap_wake.wait_until(lock, next, [&] { return swap_done; })) break;
        lock.unlock();
        SwapOnce(stack, client, served.image, &swapper.result, &swapper.failures);
        lock.lock();
      }
    });
  }
  // Window by window, CPU, completions and host steal are sampled at each
  // boundary, so the windows a shared host disturbed can be told apart.
  LoadResult merged;
  const int windows =
      std::max(1, static_cast<int>(options.seconds / options.window_seconds + 1e-9));
  double cpu_mark = cpu_start;
  double steal_mark = steal_start;
  int64_t done_mark = 0;
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.window_seconds * w)));
    const double cpu = program_cpu();
    const double steal = StolenCpuSeconds();
    const int64_t done = completed.load(std::memory_order_relaxed);
    merged.window_steal.push_back(steal - steal_mark);
    merged.window_cpu_us_per_req.push_back(
        done > done_mark ? (cpu - cpu_mark) * 1e6 / static_cast<double>(done - done_mark)
                         : 0.0);
    cpu_mark = cpu;
    steal_mark = steal;
    done_mark = done;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  const size_t per_window = total / static_cast<size_t>(windows);
  for (int w = 0; open_loop && w < windows; ++w) {
    std::vector<double> window;
    for (size_t i = static_cast<size_t>(w) * per_window;
         i < static_cast<size_t>(w + 1) * per_window; ++i) {
      if (slot_latency_ms[i] >= 0) window.push_back(slot_latency_ms[i]);
    }
    merged.window_p50_ms.push_back(Percentile(window, 0.50));
    merged.window_p90_ms.push_back(Percentile(window, 0.90));
    merged.window_p99_ms.push_back(Percentile(window, 0.99));
  }
  for (const double latency : slot_latency_ms) {
    if (latency >= 0) merged.latency_ms.push_back(latency);
  }
  merged.wall_seconds = SecondsSince(start);
  if (swap_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(swap_mutex);
      swap_done = true;
    }
    swap_wake.notify_all();
    swap_thread.join();
    connections.push_back(std::move(swapper));
  }
  for (PerConnection& connection : connections) {
    LoadResult& r = connection.result;
    merged.attempted += r.attempted;
    merged.failed += r.failed;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&merged.lag_ms, r.lag_ms);
    append(&merged.transport_us, r.transport_us);
    for (int k = 0; k < 3; ++k) append(&merged.handler_us[k], r.handler_us[k]);
    append(&merged.swap_ms, r.swap_ms);
    append(&merged.publish_ms, r.publish_ms);
    for (const std::string& failure : connection.failures) report->Fail(failure);
  }
  return merged;
}

void RunSwaps(ServingStack& stack, const std::string& image, int min_count,
              double seconds, LoadResult* into, Report* report) {
  HttpClient client(stack.port());
  std::vector<std::string> failures;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_count || SecondsSince(start) < seconds; ++i) {
    SwapOnce(stack, client, image, into, &failures);
  }
  for (const std::string& failure : failures) report->Fail(failure);
}

void TraceIndex(ServingStack& stack, const std::vector<Request>& traffic,
                const ServedRows& served, Report* report) {
  const std::string path = stack.store().SnapshotPath(stack.store().latest());

  std::vector<double> open_ms;
  for (int i = 0; i < 3; ++i) {
    surveyor::serving::Snapshot snapshot;
    const Clock::time_point start = Clock::now();
    const surveyor::Status opened = snapshot.Open(path);
    open_ms.push_back(SecondsSince(start) * 1e3);
    if (!opened.ok()) report->Fail("Snapshot::Open: " + opened.ToString());
  }

  std::vector<double> load_ms;
  double index_rss_mb = 0;
  {
    surveyor::serving::OpinionIndex index;
    for (uint64_t generation = 1; generation <= 3; ++generation) {
      const double rss_before = CurrentRssMb();
      const Clock::time_point start = Clock::now();
      const surveyor::Status loaded = index.LoadGeneration(path, generation);
      load_ms.push_back(SecondsSince(start) * 1e3);
      if (generation == 1) index_rss_mb = CurrentRssMb() - rss_before;
      if (!loaded.ok()) report->Fail("LoadGeneration: " + loaded.ToString());
    }
  }

  // Replays of this workload's own keys against the live index.
  const surveyor::serving::OpinionIndex& index = stack.index();
  std::vector<std::pair<std::string, std::string>> points;
  std::vector<std::pair<std::string, std::string>> scans;
  std::vector<std::vector<std::pair<std::string, std::string>>> batches;
  auto pair_of = [&](uint32_t row) {
    const ServedRows::Row& r = served.rows[row];
    return std::make_pair(served.entities[r.entity],
                          served.properties[r.property]);
  };
  for (const Request& request : traffic) {
    if (request.kind == Request::kPoint) points.push_back(pair_of(request.row));
    if (request.kind == Request::kTypeScan) {
      const ServedRows::Block& block = served.blocks[request.block];
      scans.emplace_back(served.types[block.type],
                         served.properties[block.property]);
    }
    if (request.kind == Request::kBatch) {
      batches.emplace_back();
      for (uint32_t row : request.batch_rows) batches.back().push_back(pair_of(row));
    }
  }
  // A mix without scans or batches still measures both calls: scans over
  // its blocks, batches cut from its point keys.
  for (size_t b = 0; scans.empty() && b < served.blocks.size() && b < 200; ++b) {
    scans.emplace_back(served.types[served.blocks[b].type],
                       served.properties[served.blocks[b].property]);
  }
  for (size_t i = 0; batches.empty() && i + kBatchSize <= points.size() &&
                     i < 500 * kBatchSize;
       i += kBatchSize) {
    batches.emplace_back(points.begin() + static_cast<std::ptrdiff_t>(i),
                         points.begin() + static_cast<std::ptrdiff_t>(i + kBatchSize));
  }

  int64_t found = 0;
  Clock::time_point start = Clock::now();
  const size_t lookups = std::min<size_t>(points.size(), 200000);
  for (size_t i = 0; i < lookups; ++i) {
    found += index.Lookup(points[i].first, points[i].second).ok() ? 1 : 0;
  }
  const double lookup_ns =
      lookups > 0 ? SecondsSince(start) * 1e9 / static_cast<double>(lookups) : 0;
  if (found != static_cast<int64_t>(lookups)) report->Fail("replayed lookup missed");

  start = Clock::now();
  for (const auto& [type, property] : scans) {
    found += static_cast<int64_t>(index.QueryType(type, property, kScanLimit).size());
  }
  const double scan_us =
      scans.empty() ? 0 : SecondsSince(start) * 1e6 / static_cast<double>(scans.size());

  start = Clock::now();
  for (const auto& batch : batches) {
    found += static_cast<int64_t>(index.BatchLookup(batch).size());
  }
  const double batch_us = batches.empty() ? 0
                                          : SecondsSince(start) * 1e6 /
                                                static_cast<double>(batches.size());

  report->Metric("serving.snapshot_open_ms", Median(open_ms), "ms");
  report->Metric("serving.load_ms", Median(load_ms), "ms");
  report->Metric("serving.index_rss_mb", index_rss_mb, "MB");
  report->Metric("serving.lookup_ns", lookup_ns, "ns");
  report->Metric("serving.type_scan_us", scan_us, "us");
  report->Metric("serving.batch_lookup_us", batch_us, "us");
}

}  // namespace perfbench
