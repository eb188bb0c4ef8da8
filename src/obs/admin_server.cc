#include "obs/admin_server.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "obs/build_info.h"
#include "obs/json_writer.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/statusor.h"
#include "util/string_util.h"

namespace surveyor {
namespace obs {

namespace {

/// Strips the query string: "/logz?n=5" -> "/logz".
std::string_view PathOf(std::string_view target) {
  const size_t query = target.find('?');
  return query == std::string_view::npos ? target : target.substr(0, query);
}

/// Value of `key` in the target's query string, "" when absent:
/// QueryParam("/tracez?format=text", "format") == "text".
std::string_view QueryParam(std::string_view target, std::string_view key) {
  const size_t question = target.find('?');
  if (question == std::string_view::npos) return {};
  std::string_view query = target.substr(question + 1);
  while (!query.empty()) {
    const size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view()
                                          : query.substr(amp + 1);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
  }
  return {};
}

/// Parses a non-negative integer query parameter, `fallback` when absent
/// or malformed.
size_t SizeParam(std::string_view target, std::string_view key,
                 size_t fallback) {
  const std::string_view raw = QueryParam(target, key);
  if (raw.empty()) return fallback;
  size_t value = 0;
  for (const char c : raw) {
    if (c < '0' || c > '9') return fallback;
    if (value > (std::numeric_limits<size_t>::max() - 9) / 10) return fallback;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  return value;
}

std::string MicrosLabel(double seconds) {
  return std::to_string(static_cast<long long>(seconds * 1e6)) + "us";
}

/// Children indices per span, built once per trace from the parent links.
std::vector<std::vector<size_t>> SpanChildren(
    const std::vector<TraceSpan>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t j = 0; j < spans.size(); ++j) {
      if (i != j && spans[j].parent_id == spans[i].id) {
        children[i].push_back(j);
      }
    }
  }
  return children;
}

/// A span is a tree root when its parent is not in the trace (the request
/// root span's parent is whatever enclosed the scope, usually 0).
bool IsRootSpan(const std::vector<TraceSpan>& spans, size_t index) {
  for (size_t j = 0; j < spans.size(); ++j) {
    if (j != index && spans[j].id == spans[index].parent_id) return false;
  }
  return true;
}

void WriteSpanTreeJson(const std::vector<TraceSpan>& spans,
                       const std::vector<std::vector<size_t>>& children,
                       size_t index, JsonWriter& writer) {
  const TraceSpan& span = spans[index];
  writer.BeginObject()
      .Key("name")
      .Value(span.name)
      .Key("id")
      .Value(span.id)
      .Key("start_seconds")
      .Value(span.start_seconds)
      .Key("duration_seconds")
      .Value(span.duration_seconds)
      .Key("children")
      .BeginArray();
  for (const size_t child : children[index]) {
    WriteSpanTreeJson(spans, children, child, writer);
  }
  writer.EndArray().EndObject();
}

void WriteSpanTreeText(const std::vector<TraceSpan>& spans,
                       const std::vector<std::vector<size_t>>& children,
                       size_t index, int depth, std::string* out) {
  const TraceSpan& span = spans[index];
  out->append(static_cast<size_t>(2 * (depth + 1)), ' ');
  *out += span.name + " " + MicrosLabel(span.duration_seconds) + "\n";
  for (const size_t child : children[index]) {
    WriteSpanTreeText(spans, children, child, depth + 1, out);
  }
}

}  // namespace

namespace {

RequestTracerOptions TracerOptionsFrom(const AdminServerOptions& options) {
  RequestTracerOptions tracer;
  tracer.sample_rate = options.trace_sample_rate;
  tracer.slow_threshold_seconds = options.slow_query_ms / 1000.0;
  tracer.ring_capacity = options.trace_ring_capacity;
  return tracer;
}

}  // namespace

AdminServer::AdminServer(const MetricRegistry* registry,
                         const StageTracker* stage, const LogRing* log_ring,
                         AdminServerOptions options)
    : registry_(registry),
      stage_(stage),
      log_ring_(log_ring),
      options_(std::move(options)),
      request_tracer_(TracerOptionsFrom(options_)),
      access_log_(options_.access_log_capacity == 0
                      ? 1
                      : options_.access_log_capacity) {
  SURVEYOR_CHECK(registry_ != nullptr);
}

AdminServer::~AdminServer() { Stop(); }

void AdminServer::AddHandler(std::string prefix, AdminHandler handler,
                             HandlerKind kind) {
  SURVEYOR_CHECK(http_ == nullptr) << "AddHandler after Start()";
  routes_.push_back({std::move(prefix), std::move(handler), kind});
}

void AdminServer::AddStatusSection(std::string key, StatusSection section) {
  SURVEYOR_CHECK(http_ == nullptr) << "AddStatusSection after Start()";
  status_sections_.emplace_back(std::move(key), std::move(section));
}

void AdminServer::AddMetricsHook(MetricsHook hook) {
  SURVEYOR_CHECK(http_ == nullptr) << "AddMetricsHook after Start()";
  metrics_hooks_.push_back(std::move(hook));
}

AdminResponse AdminServer::Handle(std::string_view method,
                                  std::string_view target,
                                  std::string_view body) const {
  RequestScope scope(&request_tracer_,
                     options_.access_log_capacity == 0 ? nullptr
                                                       : &access_log_,
                     method, target);
  const AdminResponse response = Dispatch(method, target, body, &scope);
  scope.set_status(response.status);
  scope.set_response_bytes(response.body.size());
  return response;
}

const AdminServer::Route* AdminServer::FindRoute(
    std::string_view path) const {
  const Route* best = nullptr;
  for (const Route& route : routes_) {
    const std::string& prefix = route.prefix;
    const bool matches =
        path.size() >= prefix.size() && path.substr(0, prefix.size()) == prefix &&
        (path.size() == prefix.size() || path[prefix.size()] == '/' ||
         path[prefix.size()] == '?' || prefix.back() == '/');
    if (matches && (best == nullptr || prefix.size() >= best->prefix.size())) {
      best = &route;
    }
  }
  return best;
}

bool AdminServer::RouteBlocks(std::string_view target) const {
  const std::string_view path = PathOf(target);
  const Route* route = FindRoute(path);
  // /profilez sleeps through its whole sampling window.
  return route != nullptr ? route->kind == HandlerKind::kBlocking
                          : path == "/profilez";
}

AdminResponse AdminServer::Dispatch(std::string_view method,
                                    std::string_view target,
                                    std::string_view body,
                                    RequestScope* scope) const {
  const std::string_view path = PathOf(target);
  // Registered endpoints first, longest prefix wins; they own their
  // method policy (POST included).
  if (const Route* route = FindRoute(path)) {
    // Endpoint counters aggregate under the registered prefix, not the
    // full path, so "/v1/query?e=x" and "/v1/query/batch" share a series.
    scope->set_endpoint(route->prefix);
    return route->handler(method, target, body);
  }
  if (method != "GET" && method != "HEAD") {
    scope->set_endpoint("other");
    AdminResponse response;
    response.status = 405;
    response.body = "only GET is supported\n";
    return response;
  }
  if (path == "/metrics") return MetricsText();
  if (path == "/metrics.json") return MetricsJson();
  if (path == "/healthz") return Healthz();
  if (path == "/readyz") return Readyz();
  if (path == "/statusz") return Statusz();
  if (path == "/logz") return Logz();
  if (path == "/tracez") return Tracez(target);
  if (path == "/requestz") return Requestz(target);
  if (path == "/profilez") return Profilez(target);
  if (path == "/" || path.empty()) return Index();
  // Unknown paths share one counter series — a 404 scan must not mint
  // per-path label values.
  scope->set_endpoint("other");
  AdminResponse response;
  response.status = 404;
  response.body = "unknown endpoint; see /\n";
  return response;
}

AdminResponse AdminServer::MetricsText() const {
  for (const MetricsHook& hook : metrics_hooks_) hook();
  AdminResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = registry_->ToPrometheusText();
  if (log_ring_ != nullptr) {
    log_ring_->AppendPrometheusText(&response.body);
  }
  request_tracer_.AppendPrometheusText(&response.body);
  if (options_.access_log_capacity > 0) {
    access_log_.AppendPrometheusText(&response.body);
  }
  return response;
}

AdminResponse AdminServer::MetricsJson() const {
  for (const MetricsHook& hook : metrics_hooks_) hook();
  AdminResponse response;
  response.content_type = "application/json";
  response.body = registry_->ToJson() + "\n";
  return response;
}

AdminResponse AdminServer::Healthz() const {
  AdminResponse response;
  // Degraded stays 200: the process is alive and serving; probes must not
  // restart it for quarantined documents or SMV-fallback pairs. Dashboards
  // read the body (and /statusz) for the flag.
  response.body = (stage_ != nullptr && stage_->degraded()) ? "degraded\n"
                                                            : "ok\n";
  return response;
}

AdminResponse AdminServer::Readyz() const {
  AdminResponse response;
  if (stage_ == nullptr) {
    response.body = "ok\n";
    return response;
  }
  const PipelineStage stage = stage_->stage();
  response.status = stage_->ready() ? 200 : 503;
  response.body = std::string(PipelineStageName(stage)) + "\n";
  return response;
}

AdminResponse AdminServer::Statusz() const {
  JsonWriter writer;
  writer.BeginObject();
  // Binary identity first: anything read off this page (and any profile
  // taken from this process) is attributable to an exact build.
  AppendBuildInfoJson(writer);
  if (stage_ != nullptr) {
    writer.Key("stage").Value(PipelineStageName(stage_->stage()));
    writer.Key("ready").Value(stage_->ready());
    writer.Key("degraded").Value(stage_->degraded());
    writer.Key("uptime_seconds").Value(stage_->UptimeSeconds());
    writer.Key("stage_seconds").BeginObject();
    for (const auto& [name, seconds] : stage_->StageSeconds()) {
      writer.Key(name).Value(seconds);
    }
    writer.EndObject();
  }
  // The live span stack per thread: what every worker is doing right now.
  writer.Key("active_spans").BeginArray();
  for (const ActiveSpan& span : Tracer::Global().ActiveSpans()) {
    writer.BeginObject()
        .Key("thread")
        .Value(static_cast<int64_t>(span.thread_index))
        .Key("name")
        .Value(span.name)
        .Key("id")
        .Value(span.id)
        .Key("parent_id")
        .Value(span.parent_id)
        .Key("start_seconds")
        .Value(span.start_seconds)
        .EndObject();
  }
  writer.EndArray();
  if (log_ring_ != nullptr) {
    writer.Key("log_messages").BeginObject();
    for (const LogSeverity severity :
         {LogSeverity::kInfo, LogSeverity::kWarning, LogSeverity::kError,
          LogSeverity::kFatal}) {
      writer.Key(LogSeverityLabel(severity))
          .Value(log_ring_->MessageCount(severity));
    }
    writer.EndObject();
  }
  for (const auto& [key, section] : status_sections_) {
    writer.Key(key);
    section(writer);
  }
  writer.EndObject();
  AdminResponse response;
  response.content_type = "application/json";
  response.body = writer.str() + "\n";
  return response;
}

AdminResponse AdminServer::Logz() const {
  AdminResponse response;
  if (log_ring_ == nullptr) return response;
  std::vector<LogRing::Line> lines = log_ring_->Snapshot();
  const size_t keep = options_.max_log_lines;
  const size_t begin = lines.size() > keep ? lines.size() - keep : 0;
  for (size_t i = begin; i < lines.size(); ++i) {
    response.body += StrFormat("%lld %s %s\n",
                               static_cast<long long>(lines[i].sequence),
                               std::string(LogSeverityLabel(lines[i].severity))
                                   .c_str(),
                               lines[i].text.c_str());
  }
  return response;
}

AdminResponse AdminServer::Tracez(std::string_view target) const {
  const std::vector<RequestTrace> traces = request_tracer_.Snapshot();
  AdminResponse response;
  if (QueryParam(target, "format") == "text") {
    std::string& out = response.body;
    for (const RequestTrace& trace : traces) {
      out += "trace " + TraceIdHex(trace.trace_id) + " " + trace.method +
             " " + trace.target + " status=" +
             std::to_string(trace.status) + " " +
             MicrosLabel(trace.duration_seconds) +
             (trace.sampled ? " sampled" : "") + (trace.slow ? " slow" : "") +
             " retries=" + std::to_string(trace.stats.retries) + "\n";
      const std::vector<std::vector<size_t>> children =
          SpanChildren(trace.spans);
      for (size_t i = 0; i < trace.spans.size(); ++i) {
        if (IsRootSpan(trace.spans, i)) {
          WriteSpanTreeText(trace.spans, children, i, 0, &out);
        }
      }
    }
    if (out.empty()) out = "no traces retained yet\n";
    return response;
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("requests_started").Value(request_tracer_.requests_started());
  writer.Key("requests_sampled").Value(request_tracer_.requests_sampled());
  writer.Key("requests_slow").Value(request_tracer_.requests_slow());
  writer.Key("traces_kept").Value(request_tracer_.traces_kept());
  writer.Key("traces_evicted").Value(request_tracer_.traces_evicted());
  writer.Key("traces").BeginArray();
  for (const RequestTrace& trace : traces) {
    writer.BeginObject()
        .Key("trace_id")
        .Value(TraceIdHex(trace.trace_id))
        .Key("sampled")
        .Value(trace.sampled)
        .Key("slow")
        .Value(trace.slow)
        .Key("method")
        .Value(trace.method)
        .Key("target")
        .Value(trace.target)
        .Key("status")
        .Value(trace.status)
        .Key("response_bytes")
        .Value(static_cast<int64_t>(trace.response_bytes))
        .Key("start_unix_seconds")
        .Value(trace.start_unix_seconds)
        .Key("duration_seconds")
        .Value(trace.duration_seconds)
        .Key("retries")
        .Value(trace.stats.retries)
        .Key("dropped_spans")
        .Value(trace.dropped_spans)
        .Key("spans")
        .BeginArray();
    const std::vector<std::vector<size_t>> children =
        SpanChildren(trace.spans);
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      if (IsRootSpan(trace.spans, i)) {
        WriteSpanTreeJson(trace.spans, children, i, writer);
      }
    }
    writer.EndArray().EndObject();
  }
  writer.EndArray().EndObject();
  response.content_type = "application/json";
  response.body = writer.str() + "\n";
  return response;
}

AdminResponse AdminServer::Requestz(std::string_view target) const {
  // ?slowest=N serves the worst-latency entries; the default is the most
  // recent ones, newest first.
  const size_t slowest = SizeParam(target, "slowest", 0);
  std::vector<AccessLogEntry> entries;
  if (slowest > 0) {
    entries = access_log_.SlowestN(slowest);
  } else {
    entries = access_log_.Snapshot();
    std::reverse(entries.begin(), entries.end());
    const size_t keep = SizeParam(target, "n", 100);
    if (entries.size() > keep) entries.resize(keep);
  }
  AdminResponse response;
  if (QueryParam(target, "format") == "text") {
    std::string& out = response.body;
    for (const AccessLogEntry& entry : entries) {
      out += std::to_string(entry.sequence) + " " + entry.method + " " +
             entry.target + " status=" + std::to_string(entry.status) + " " +
             std::to_string(entry.response_bytes) + "b " +
             MicrosLabel(entry.latency_seconds) + " trace=" +
             TraceIdHex(entry.trace_id) + (entry.sampled ? " sampled" : "") +
             (entry.slow ? " slow" : "") + "\n";
    }
    if (out.empty()) out = "no requests logged yet\n";
    return response;
  }
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("total_requests").Value(access_log_.total_requests());
  writer.Key("requests").BeginArray();
  for (const AccessLogEntry& entry : entries) {
    writer.BeginObject()
        .Key("sequence")
        .Value(entry.sequence)
        .Key("unix_seconds")
        .Value(entry.unix_seconds)
        .Key("method")
        .Value(entry.method)
        .Key("target")
        .Value(entry.target)
        .Key("endpoint")
        .Value(entry.endpoint)
        .Key("status")
        .Value(entry.status)
        .Key("response_bytes")
        .Value(static_cast<int64_t>(entry.response_bytes))
        .Key("latency_seconds")
        .Value(entry.latency_seconds)
        .Key("trace_id")
        .Value(TraceIdHex(entry.trace_id))
        .Key("sampled")
        .Value(entry.sampled)
        .Key("slow")
        .Value(entry.slow)
        .Key("retries")
        .Value(entry.stats.retries)
        .EndObject();
  }
  writer.EndArray().EndObject();
  response.content_type = "application/json";
  response.body = writer.str() + "\n";
  return response;
}

AdminResponse AdminServer::Profilez(std::string_view target) const {
  AdminResponse response;
  // seconds: the profile window, (0, 30]. Parsed as a double so sub-second
  // smoke windows work (?seconds=0.2).
  double seconds = 1.0;
  const std::string seconds_raw(QueryParam(target, "seconds"));
  if (!seconds_raw.empty()) {
    char* end = nullptr;
    seconds = std::strtod(seconds_raw.c_str(), &end);
    if (end == seconds_raw.c_str() || *end != '\0' || !(seconds > 0.0) ||
        seconds > 30.0) {
      response.status = 400;
      response.body = "seconds must be a number in (0, 30]\n";
      return response;
    }
  }
  const std::string_view format = QueryParam(target, "format");
  if (!format.empty() && format != "folded" && format != "json") {
    response.status = 400;
    response.body = "format must be folded or json\n";
    return response;
  }
  ProfilerOptions options;
  options.stage_tracker = stage_;
  options.metrics = options_.profiler_metrics;
  const StatusOr<ProfileResult> result =
      Profiler::Global().ProfileFor(seconds, options);
  if (!result.ok()) {
    switch (result.status().code()) {
      case StatusCode::kFailedPrecondition:
        response.status = 409;  // another profile window is open
        break;
      case StatusCode::kUnimplemented:
        response.status = 501;  // sanitizer build / unsupported platform
        break;
      default:
        response.status = 500;
    }
    response.body = result.status().ToString() + "\n";
    return response;
  }
  if (format == "json") {
    response.content_type = "application/json";
    response.body = result.value().ToJson() + "\n";
  } else {
    response.body = result.value().ToFolded();
    if (response.body.empty()) {
      // Zero samples is a valid profile of an idle process; keep the
      // response non-empty so shell pipelines notice the difference
      // between "idle" and "broken".
      response.body = "# no samples (process idle during the window)\n";
    }
  }
  return response;
}

AdminResponse AdminServer::Index() const {
  AdminResponse response;
  response.body =
      "surveyor admin server\n"
      "  /metrics       Prometheus text exposition\n"
      "  /metrics.json  metrics as JSON\n"
      "  /healthz       liveness\n"
      "  /readyz        pipeline-stage readiness\n"
      "  /statusz       build info, stage, stage seconds, live spans, "
      "log counters\n"
      "  /logz          recent log lines\n"
      "  /tracez        retained request traces (?format=text)\n"
      "  /requestz      recent requests (?slowest=N, ?format=text)\n"
      "  /profilez      CPU profile (?seconds=N, ?format=folded|json)\n";
  return response;
}

Status AdminServer::Start() {
  if (http_ != nullptr) {
    return Status::FailedPrecondition("admin server already started");
  }
  HttpServerOptions http_options;
  http_options.port = options_.port;
  http_options.bind_address = options_.bind_address;
  http_options.num_workers = options_.serve_workers;
  http_options.handler_threads = options_.handler_threads;
  http_options.max_connections = options_.max_connections;
  http_options.queue_high_water = options_.queue_high_water;
  http_options.idle_timeout_seconds = options_.idle_timeout_seconds;
  http_options.drain_seconds = options_.drain_seconds;
  // Transport metrics (connection gauge, queue depth, shed count) land in
  // the writable registry when one is injected, so /metrics scrapes the
  // serving tier's own health alongside the application's.
  http_options.metrics = options_.profiler_metrics;
  http_ = std::make_unique<HttpServer>(
      [this](std::string_view method, std::string_view target,
             std::string_view body) { return Handle(method, target, body); },
      [this](std::string_view target) { return RouteBlocks(target); },
      std::move(http_options));
  const Status status = http_->Start();
  if (!status.ok()) {
    http_.reset();
    return status;
  }
  port_ = http_->port();
  return Status::OK();
}

void AdminServer::Stop() {
  if (http_ == nullptr) return;
  http_->Stop();
  http_.reset();
}

}  // namespace obs
}  // namespace surveyor
