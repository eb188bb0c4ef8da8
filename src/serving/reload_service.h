#ifndef SURVEYOR_SERVING_RELOAD_SERVICE_H_
#define SURVEYOR_SERVING_RELOAD_SERVICE_H_

#include <cstdint>
#include <string_view>

#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "serving/generation_store.h"
#include "serving/opinion_index.h"
#include "util/status.h"

namespace surveyor {
namespace serving {

/// The operator face of snapshot generations, wiring a GenerationStore to
/// a live OpinionIndex on the admin plane:
///
///   POST /v1/admin/reload                hot-swap to the newest committed
///                                        generation (refreshes the
///                                        manifest first, so it picks up a
///                                        publish by another process)
///   POST /v1/admin/reload?generation=N   hot-swap to a specific committed
///                                        generation — rollback
///
/// Responses use the /v1 envelope (serving/api_envelope.h).
///
/// Register() also mounts a "generation" section on /statusz (serving id,
/// age, the store's rollback menu) and a scrape-time hook keeping the
/// surveyor_generation_age_seconds gauge fresh on /metrics. Reload
/// requests force-sample their trace, so every swap leaves its span tree
/// on /tracez regardless of the sampling rate.
///
/// A failed reload (corrupt generation, injected fault) leaves the index
/// serving its previous generation; the failure is the HTTP status, the
/// surveyor_reload_failures_total counter, and the index's own
/// swap-failure counter.
class ReloadService {
 public:
  /// `store` and `index` must outlive the service. The store should
  /// already be Open()ed. `metrics` may be null (the index's registry is
  /// used).
  ReloadService(GenerationStore* store, OpinionIndex* index,
                obs::MetricRegistry* metrics);

  /// Mounts /v1/admin/reload (a blocking endpoint: it runs on the
  /// handler pool), the /statusz section and the /metrics age hook. Call
  /// before server->Start().
  void Register(obs::AdminServer* server);

  /// Pure request handling, exposed for tests.
  obs::AdminResponse Handle(std::string_view method, std::string_view target,
                            std::string_view body) const;

  /// Refreshes the manifest and hot-swaps to the newest committed
  /// generation; OK without swapping when already serving it (or when the
  /// store is still empty). The SIGHUP path.
  Status ReloadLatest() const;

  /// Hot-swaps to a specific committed generation (NotFound when the
  /// store does not hold it).
  Status ReloadGeneration(uint64_t id) const;

  /// Writes the /statusz "generation" section.
  void WriteStatus(obs::JsonWriter& writer) const;

  /// Refreshes the generation id/age gauges (the /metrics scrape hook).
  void UpdateGauges() const;

 private:
  GenerationStore* store_;
  OpinionIndex* index_;
  obs::MetricRegistry* metrics_;
  obs::Counter* reloads_ = nullptr;
  obs::Counter* reload_failures_ = nullptr;
  obs::Gauge* age_gauge_ = nullptr;
};

}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_RELOAD_SERVICE_H_
