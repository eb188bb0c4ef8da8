#include "serving/reload_service.h"

#include <string>

#include "obs/json_writer.h"
#include "obs/request_trace.h"
#include "obs/trace.h"
#include "serving/api_envelope.h"
#include "util/logging.h"

namespace surveyor {
namespace serving {
namespace {

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    default:
      return 500;
  }
}

/// Pulls `generation=N` out of the target's query string. Returns false
/// on a malformed value; `*present` says whether the parameter appeared.
bool ParseGenerationParam(std::string_view target, bool* present,
                          uint64_t* id) {
  *present = false;
  const size_t query = target.find('?');
  if (query == std::string_view::npos) return true;
  std::string_view rest = target.substr(query + 1);
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    constexpr std::string_view kKey = "generation=";
    if (pair.substr(0, kKey.size()) != kKey) continue;
    const std::string_view value = pair.substr(kKey.size());
    if (value.empty()) return false;
    uint64_t parsed = 0;
    for (const char c : value) {
      if (c < '0' || c > '9') return false;
      parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
    }
    *present = true;
    *id = parsed;
  }
  return true;
}

}  // namespace

ReloadService::ReloadService(GenerationStore* store, OpinionIndex* index,
                             obs::MetricRegistry* metrics)
    : store_(store),
      index_(index),
      metrics_(metrics != nullptr ? metrics : &index->metrics()) {
  reloads_ = metrics_->GetCounter("surveyor_reloads_total");
  reload_failures_ = metrics_->GetCounter("surveyor_reload_failures_total");
  age_gauge_ = metrics_->GetGauge("surveyor_generation_age_seconds");
  metrics_->SetHelp("surveyor_reloads_total",
                    "Successful /v1/admin/reload and SIGHUP generation swaps");
  metrics_->SetHelp("surveyor_reload_failures_total",
                    "Reload requests that left the old generation serving");
  metrics_->SetHelp("surveyor_generation_age_seconds",
                    "Seconds since the serving generation was swapped in");
}

void ReloadService::Register(obs::AdminServer* server) {
  const auto handler = [this](std::string_view method, std::string_view target,
                              std::string_view body) {
    return Handle(method, target, body);
  };
  // A reload maps and indexes a whole snapshot (milliseconds): it runs on
  // the handler pool, never on an event loop.
  server->AddHandler("/v1/admin/reload", handler, obs::HandlerKind::kBlocking);
  server->AddStatusSection(
      "generation", [this](obs::JsonWriter& writer) { WriteStatus(writer); });
  server->AddMetricsHook([this] { UpdateGauges(); });
}

obs::AdminResponse ReloadService::Handle(std::string_view method,
                                         std::string_view target,
                                         std::string_view) const {
  SURVEYOR_SPAN("reload");
  // A generation swap is rare and operator-significant: always keep its
  // trace, whatever the sampling rate.
  obs::ForceSampleCurrentRequest();
  if (method != "POST") {
    return ApiError(405, "POST only");
  }
  bool explicit_id = false;
  uint64_t id = 0;
  if (!ParseGenerationParam(target, &explicit_id, &id)) {
    return ApiError(400, "generation must be a decimal id");
  }
  const uint64_t previous = index_->generation_id();
  Status status;
  if (explicit_id) {
    status = ReloadGeneration(id);
  } else {
    status = ReloadLatest();
  }
  if (!status.ok()) {
    return ApiError(HttpStatusFor(status), status.message());
  }
  const uint64_t now_serving = index_->generation_id();
  obs::JsonWriter writer;
  writer.BeginObject()
      .Key("generation")
      .Value(static_cast<int64_t>(now_serving))
      .Key("previous")
      .Value(static_cast<int64_t>(previous))
      .Key("reloaded")
      .Value(now_serving != previous || explicit_id)
      .EndObject();
  return ApiData(writer.str());
}

Status ReloadService::ReloadLatest() const {
  SURVEYOR_RETURN_IF_ERROR(store_->Refresh());
  const uint64_t latest = store_->latest();
  if (latest == 0) {
    // An empty store is only an error when nothing is serving yet —
    // otherwise SIGHUP on a freshly-initialized store is a clean no-op.
    if (!index_->loaded()) {
      reload_failures_->Increment();
      return Status::NotFound("no generations published");
    }
    return Status::OK();
  }
  if (latest == index_->generation_id()) return Status::OK();
  const Status loaded =
      index_->LoadGeneration(store_->SnapshotPath(latest), latest);
  if (!loaded.ok()) {
    reload_failures_->Increment();
    return loaded;
  }
  reloads_->Increment();
  SURVEYOR_LOG(Info) << "reloaded generation " << latest << " from "
                     << store_->root();
  return Status::OK();
}

Status ReloadService::ReloadGeneration(uint64_t id) const {
  SURVEYOR_RETURN_IF_ERROR(store_->Refresh());
  if (!store_->Contains(id)) {
    reload_failures_->Increment();
    return Status::NotFound("generation " + std::to_string(id) +
                            " is not in the store");
  }
  const Status loaded = index_->LoadGeneration(store_->SnapshotPath(id), id);
  if (!loaded.ok()) {
    reload_failures_->Increment();
    return loaded;
  }
  reloads_->Increment();
  SURVEYOR_LOG(Info) << "reloaded generation " << id << " from "
                     << store_->root();
  return Status::OK();
}

void ReloadService::WriteStatus(obs::JsonWriter& writer) const {
  const GenerationPtr generation = index_->generation();
  writer.BeginObject();
  writer.Key("serving")
      .Value(static_cast<int64_t>(generation == nullptr ? 0
                                                        : generation->id()));
  if (generation != nullptr) {
    writer.Key("age_seconds").Value(generation->AgeSeconds());
  }
  writer.Key("store_root").Value(store_->root());
  writer.Key("store_latest").Value(static_cast<int64_t>(store_->latest()));
  writer.Key("available").BeginArray();
  for (const uint64_t id : store_->generations()) {
    writer.Value(static_cast<int64_t>(id));
  }
  writer.EndArray();
  writer.EndObject();
}

void ReloadService::UpdateGauges() const {
  const GenerationPtr generation = index_->generation();
  age_gauge_->Set(generation == nullptr ? 0.0 : generation->AgeSeconds());
}

}  // namespace serving
}  // namespace surveyor
