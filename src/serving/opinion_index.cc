#include "serving/opinion_index.h"

#include <algorithm>
#include <cmath>

#include "obs/request_trace.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/hotpath.h"

namespace surveyor {
namespace serving {
namespace {

/// ASCII case fold, what std::tolower does in the "C" locale the process
/// runs in (the knowledge base lower-cases names the same way).
unsigned char Fold(char c) {
  const auto u = static_cast<unsigned char>(c);
  return (u >= 'A' && u <= 'Z') ? static_cast<unsigned char>(u + 32) : u;
}

/// FNV-1a over the folded bytes, then a multiply-xorshift so the low bits
/// that pick a slot depend on every byte.
uint64_t HashIgnoringCase(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) h = (h ^ Fold(c)) * 0x100000001b3ULL;
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 32);
}

bool EqualsIgnoringCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Fold(a[i]) != Fold(b[i])) return false;
  }
  return true;
}

/// Byte order of the lower-cased strings (std::string's order).
int CompareIgnoringCase(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (Fold(a[i]) != Fold(b[i])) return Fold(a[i]) < Fold(b[i]) ? -1 : 1;
  }
  return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
}

}  // namespace

template <typename NameOf>
void NameIndex::Build(uint32_t count, const NameOf& name_of) {
  size_t capacity = 8;
  while (capacity < 2 * static_cast<size_t>(count)) capacity *= 2;
  slots_.assign(capacity, kNone);
  mask_ = capacity - 1;
  for (uint32_t i = 0; i < count; ++i) {
    const std::string_view name = name_of(i);
    for (size_t slot = HashIgnoringCase(name) & mask_;;
         slot = (slot + 1) & mask_) {
      if (slots_[slot] == kNone ||
          EqualsIgnoringCase(name_of(slots_[slot]), name)) {
        slots_[slot] = i;
        break;
      }
    }
  }
}

template <typename NameOf>
uint32_t NameIndex::Find(std::string_view name, const NameOf& name_of) const {
  // At most half full, so every probe sequence reaches an empty slot.
  for (size_t slot = HashIgnoringCase(name) & mask_;;
       slot = (slot + 1) & mask_) {
    const uint32_t index = slots_[slot];
    if (index == kNone || EqualsIgnoringCase(name_of(index), name)) {
      return index;
    }
  }
}

uint32_t LoadedGeneration::FindEntity(std::string_view name) const {
  return entities_.Find(
      name, [this](uint32_t i) { return snapshot_.EntityName(i); });
}

uint32_t LoadedGeneration::FindProperty(std::string_view name) const {
  return properties_.Find(
      name, [this](uint32_t i) { return snapshot_.PropertyName(i); });
}

uint32_t LoadedGeneration::FindType(std::string_view name) const {
  return types_.Find(name,
                     [this](uint32_t i) { return snapshot_.TypeName(i); });
}

OpinionIndex::OpinionIndex(OpinionIndexOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    own_metrics_ = std::make_unique<obs::MetricRegistry>();
    metrics_ = own_metrics_.get();
  }
  lookups_ = metrics_->GetCounter("surveyor_query_lookups_total");
  not_found_ = metrics_->GetCounter("surveyor_query_not_found_total");
  swaps_ = metrics_->GetCounter("surveyor_generation_swaps_total");
  swap_failures_ =
      metrics_->GetCounter("surveyor_generation_swap_failures_total");
  generation_gauge_ = metrics_->GetGauge("surveyor_generation_id");
  metrics_->SetHelp("surveyor_generation_swaps_total",
                    "Snapshot generations hot-swapped into the index");
  metrics_->SetHelp("surveyor_generation_swap_failures_total",
                    "Failed loads (the previous generation kept serving)");
  metrics_->SetHelp("surveyor_generation_id",
                    "Generation id currently serving (0 = none)");
}

Status OpinionIndex::Load(const std::string& path) {
  return LoadGeneration(path, generation_id() + 1);
}

Status OpinionIndex::LoadGeneration(const std::string& path,
                                    uint64_t generation_id) {
  SURVEYOR_SPAN("opinion_index.load");
  MutexLock load_lock(load_mutex_);
  // Everything below builds off to the side: queries keep hitting the
  // current generation untouched until the single publish store at the
  // bottom. Any failure leaves the index exactly as it was.
  auto fail = [this](Status status) {
    swap_failures_->Increment();
    return status;
  };

  Snapshot snapshot;
  const RetryResult result = RetryWithBackoff(
      options_.retry, [&snapshot, &path] { return snapshot.Open(path); });
  if (result.attempts > 1) {
    if (obs::RequestStats* stats = obs::CurrentRequestStats()) {
      stats->retries += result.attempts - 1;
    }
  }
  if (!result.status.ok()) return fail(result.status);

  auto generation = std::make_shared<LoadedGeneration>();
  generation->id_ = generation_id;
  generation->snapshot_ = std::move(snapshot);
  const Snapshot& mapped = generation->snapshot_;
  generation->entities_.Build(
      static_cast<uint32_t>(mapped.num_entities()),
      [&mapped](uint32_t i) { return mapped.EntityName(i); });
  generation->properties_.Build(
      static_cast<uint32_t>(mapped.num_properties()),
      [&mapped](uint32_t i) { return mapped.PropertyName(i); });
  generation->types_.Build(
      static_cast<uint32_t>(mapped.num_types()),
      [&mapped](uint32_t i) { return mapped.TypeName(i); });
  generation->loaded_at_ = std::chrono::steady_clock::now();

  // The "generation_swap" fault simulates a load that dies after all the
  // I/O succeeded but before publication — the previous generation must
  // keep serving and the failure must be visible on /metrics.
  if (SURVEYOR_FAULT("generation_swap")) {
    return fail(
        Status::Internal("injected fault at generation_swap: " + path));
  }

  // The swap: one pointer exchange under current_mutex_. In-flight
  // queries finish on the generation they pinned; its snapshot and
  // indexes die with the last reference. When no query pins the retired
  // generation, this function holds that last reference, and drops it
  // only after unlocking, so no reader waits on the teardown.
  GenerationPtr retired;
  {
    MutexLock lock(current_mutex_);
    retired = std::exchange(current_, generation);
  }
  retired.reset();
  swaps_->Increment();
  generation_gauge_->Set(static_cast<double>(generation->id()));
  metrics_->GetGauge("surveyor_snapshot_opinions")
      ->Set(static_cast<double>(mapped.num_opinions()));
  metrics_->GetGauge("surveyor_snapshot_entities")
      ->Set(static_cast<double>(mapped.num_entities()));
  return Status::OK();
}

ServedOpinion OpinionIndex::Materialize(const LoadedGeneration& generation,
                                        const Snapshot::BlockView& block,
                                        uint32_t record_index) const {
  SURVEYOR_SPAN("snapshot.materialize");
  const Snapshot& snapshot = generation.snapshot_;
  const Snapshot::RecordView record =
      Snapshot::ReadRecord(block.records, record_index);
  ServedOpinion opinion;
  opinion.entity = std::string(snapshot.EntityName(record.entity_index));
  opinion.type = std::string(snapshot.TypeName(block.type_index));
  opinion.property = std::string(snapshot.PropertyName(block.property_index));
  opinion.posterior = record.posterior;
  opinion.polarity = record.polarity;
  opinion.degraded = block.degraded;
  opinion.provenance =
      snapshot.Provenance(record.entity_index, block.property_index);
  return opinion;
}

SURVEYOR_HOT_FUNCTION
StatusOr<ServedOpinion> OpinionIndex::Lookup(std::string_view entity,
                                             std::string_view property) const {
  SURVEYOR_SPAN("opinion_index.lookup");
  lookups_->Increment();
  const GenerationPtr generation = this->generation();
  if (generation == nullptr) {
    return Status::FailedPrecondition("no snapshot loaded");
  }
  return LookupIn(*generation, entity, property);
}

SURVEYOR_HOT_FUNCTION
StatusOr<ServedOpinion> OpinionIndex::LookupIn(
    const LoadedGeneration& generation, std::string_view entity,
    std::string_view property) const {
  // Two name probes, then the entity's (type, property) block and a
  // binary search of its records, all in the mapping.
  const Snapshot& snapshot = generation.snapshot_;
  const uint32_t entity_index = generation.FindEntity(entity);
  if (entity_index == NameIndex::kNone) {
    not_found_->Increment();
    return Status::NotFound("unknown entity '" + std::string(entity) + "'");
  }
  const uint32_t property_index = generation.FindProperty(property);
  const Snapshot::BlockView* block =
      property_index == NameIndex::kNone
          ? nullptr
          : snapshot.FindBlock(snapshot.EntityType(entity_index),
                               property_index);
  const int64_t record =
      block == nullptr ? -1 : Snapshot::FindRecord(*block, entity_index);
  if (record < 0) {
    not_found_->Increment();
    return Status::NotFound("no opinion for entity '" + std::string(entity) +
                            "' property '" + std::string(property) + "'");
  }
  return Materialize(generation, *block, static_cast<uint32_t>(record));
}

std::vector<StatusOr<ServedOpinion>> OpinionIndex::BatchLookup(
    const std::vector<std::pair<std::string, std::string>>& pairs) const {
  std::vector<StatusOr<ServedOpinion>> out;
  out.reserve(pairs.size());
  // Pin once: the whole batch is answered from one generation even if a
  // swap lands mid-batch.
  const GenerationPtr generation = this->generation();
  for (const auto& [entity, property] : pairs) {
    SURVEYOR_SPAN("opinion_index.lookup");
    lookups_->Increment();
    if (generation == nullptr) {
      out.push_back(Status::FailedPrecondition("no snapshot loaded"));
    } else {
      out.push_back(LookupIn(*generation, entity, property));
    }
  }
  return out;
}

std::vector<ServedOpinion> OpinionIndex::QueryType(std::string_view type,
                                                   std::string_view property,
                                                   size_t limit) const {
  std::vector<ServedOpinion> out;
  const GenerationPtr pinned = this->generation();
  if (pinned == nullptr) return out;
  const LoadedGeneration& generation = *pinned;
  const uint32_t type_index = generation.FindType(type);
  const uint32_t property_index = generation.FindProperty(property);
  if (type_index == NameIndex::kNone || property_index == NameIndex::kNone) {
    return out;
  }
  const Snapshot& snapshot = generation.snapshot_;
  const Snapshot::BlockView* block =
      snapshot.FindBlock(type_index, property_index);
  if (block == nullptr) return out;
  // Rank record indices, reading posteriors and names in place; only the
  // `limit` survivors are materialized.
  struct Ranked {
    double posterior;
    std::string_view entity;
    uint32_t record;
  };
  std::vector<Ranked> ranked;
  for (uint32_t r = 0; r < block->record_count; ++r) {
    const Snapshot::RecordView record = Snapshot::ReadRecord(block->records, r);
    if (record.polarity != Polarity::kPositive) continue;
    ranked.push_back(
        {record.posterior, snapshot.EntityName(record.entity_index), r});
  }
  const size_t keep =
      limit > 0 && ranked.size() > limit ? limit : ranked.size();
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    [](const Ranked& a, const Ranked& b) {
                      if (a.posterior != b.posterior) {
                        return a.posterior > b.posterior;
                      }
                      return a.entity < b.entity;
                    });
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    out.push_back(Materialize(generation, *block, ranked[i].record));
  }
  return out;
}

std::vector<ServedOpinion> OpinionIndex::PropertiesOf(
    std::string_view entity) const {
  std::vector<ServedOpinion> out;
  const GenerationPtr pinned = this->generation();
  if (pinned == nullptr) return out;
  const LoadedGeneration& generation = *pinned;
  const uint32_t entity_index = generation.FindEntity(entity);
  if (entity_index == NameIndex::kNone) return out;
  const Snapshot& snapshot = generation.snapshot_;
  // Every record of an entity sits in a block of its type.
  for (const Snapshot::BlockView& block :
       snapshot.TypeBlocks(snapshot.EntityType(entity_index))) {
    const int64_t record = Snapshot::FindRecord(block, entity_index);
    if (record < 0) continue;
    out.push_back(
        Materialize(generation, block, static_cast<uint32_t>(record)));
  }
  std::sort(out.begin(), out.end(),
            [](const ServedOpinion& a, const ServedOpinion& b) {
              if (a.polarity != b.polarity) {
                return a.polarity == Polarity::kPositive;
              }
              const double da = std::abs(a.posterior - 0.5);
              const double db = std::abs(b.posterior - 0.5);
              if (da != db) return da > db;
              return a.property < b.property;
            });
  return out;
}

std::vector<std::string> OpinionIndex::PrefixScan(std::string_view prefix,
                                                  size_t limit) const {
  std::vector<std::string> out;
  const GenerationPtr pinned = this->generation();
  if (pinned == nullptr) return out;
  const Snapshot& snapshot = pinned->snapshot_;
  // One pass over the entity table; only the matches are sorted, by
  // lower-cased name and then table index.
  std::vector<uint32_t> matches;
  const uint32_t num_entities = static_cast<uint32_t>(snapshot.num_entities());
  for (uint32_t i = 0; i < num_entities; ++i) {
    const std::string_view name = snapshot.EntityName(i);
    if (name.size() >= prefix.size() &&
        EqualsIgnoringCase(name.substr(0, prefix.size()), prefix)) {
      matches.push_back(i);
    }
  }
  std::sort(matches.begin(), matches.end(),
            [&snapshot](uint32_t a, uint32_t b) {
              const int order = CompareIgnoringCase(snapshot.EntityName(a),
                                                    snapshot.EntityName(b));
              return order != 0 ? order < 0 : a < b;
            });
  if (limit > 0 && matches.size() > limit) matches.resize(limit);
  out.reserve(matches.size());
  for (const uint32_t i : matches) out.emplace_back(snapshot.EntityName(i));
  return out;
}

}  // namespace serving
}  // namespace surveyor
