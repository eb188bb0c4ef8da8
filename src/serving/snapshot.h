#ifndef SURVEYOR_SERVING_SNAPSHOT_H_
#define SURVEYOR_SERVING_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "extraction/aggregator.h"
#include "kb/knowledge_base.h"
#include "model/opinion.h"
#include "surveyor/pipeline.h"
#include "util/mmap_file.h"
#include "util/status.h"
#include "util/statusor.h"

namespace surveyor {
namespace serving {

/// The opinion snapshot: a versioned, immutable binary artifact holding
/// everything a serving process needs to answer subjective queries — the
/// durable hand-off between the offline mining run (the paper's 5000-node
/// extraction) and the online query engine that outlives it.
///
/// File layout (little-endian, every section 8-byte aligned):
///
///   FileHeader        magic "SURVSNP\n", format version, section count,
///                     total file size (truncation check)
///   SectionEntry[n]   id, CRC-32 of the payload, offset, size
///   payloads          one per section:
///     meta            snapshot label + opinion/block counts
///     types           string table of type names
///     entities        (name, type index) per entity, names in one blob
///     properties      string table of property strings
///     opinions        per-(type, property) blocks: header (type index,
///                     property index, degraded flag, record count,
///                     record offset) + 16-byte records
///                     {posterior f64, entity index u32, polarity i8}
///     provenance      optional supporting-statement samples per
///                     (entity, property)
///
/// The writer emits every table sorted: entities get their index in name
/// order, blocks ascend by (type, property), the records of a block by
/// entity index, and provenance entries by (entity, property). The reader
/// relies on the last three orders to probe the file in place.
///
/// Every section payload is CRC-32 checked at open, and the order above
/// is validated in the same pass, so bit rot, truncation and misordered
/// tables are detected before a single query is answered. The reader is
/// zero-copy: it mmaps the file, serves names as string_views into the
/// mapping, binary-searches records where they lie and decodes provenance
/// samples only when asked for one pair.
inline constexpr char kSnapshotMagic[8] = {'S', 'U', 'R', 'V',
                                           'S', 'N', 'P', '\n'};
inline constexpr uint32_t kSnapshotFormatVersion = 1;

/// Section ids of format version 1.
enum SnapshotSection : uint32_t {
  kSectionMeta = 1,
  kSectionTypes = 2,
  kSectionEntities = 3,
  kSectionProperties = 4,
  kSectionOpinions = 5,
  kSectionProvenance = 6,
};

/// One mined opinion as the snapshot stores it, with names resolved — a
/// snapshot is self-contained and serves without the knowledge base that
/// produced it.
struct SnapshotOpinion {
  std::string entity;
  std::string type;
  std::string property;
  double posterior = 0.5;
  Polarity polarity = Polarity::kNeutral;
  /// True when the pair's EM fit fell back to the SMV baseline.
  bool degraded = false;
};

/// Builds a snapshot deterministically: output bytes depend only on the
/// opinions, provenance and label added, never on insertion order (types,
/// entities, properties and blocks are sorted before serialization), so
/// write -> read -> rebuild -> write is bit-identical.
class SnapshotWriter {
 public:
  SnapshotWriter() = default;

  /// Free-form label stored in the meta section (e.g. "mine /tmp/ws").
  void set_label(std::string label) { label_ = std::move(label); }

  /// Adds one opinion; a second Add for the same (type, entity, property)
  /// replaces the first. Neutral-polarity opinions are rejected: they
  /// carry no decision. Entities are keyed by name alone, so a name
  /// already added under another type is InvalidArgument (the knowledge
  /// base allows a "paris" city next to a "paris" person; the snapshot
  /// could not tell their opinions apart).
  Status Add(const SnapshotOpinion& opinion);

  /// Adds supporting-statement samples for one (entity, property) pair.
  /// Samples for a name already added under another type are dropped
  /// rather than attached to the wrong entity; AddResult reports that
  /// collision as InvalidArgument.
  void AddProvenance(const std::string& entity, const std::string& type,
                     const std::string& property,
                     std::vector<StatementRef> refs);

  /// Adds every non-neutral opinion (and any provenance samples) of a
  /// pipeline result, resolving entity/type names through `kb`. Fails on
  /// the first name collision.
  Status AddResult(const PipelineResult& result, const KnowledgeBase& kb);

  /// Serializes the snapshot image.
  std::string Serialize() const;

  Status WriteToFile(const std::string& path) const;

 private:
  struct PairKey {
    std::string type;
    std::string property;
    auto operator<=>(const PairKey&) const = default;
  };
  struct Record {
    double posterior = 0.5;
    Polarity polarity = Polarity::kNeutral;
  };
  struct Block {
    bool degraded = false;
    /// entity name -> record; map for deterministic order.
    std::map<std::string, Record> records;
  };

  /// Records `entity` under `type`; InvalidArgument if the name is
  /// already registered under another type.
  Status RegisterEntity(const std::string& entity, const std::string& type);

  std::string label_;
  std::map<PairKey, Block> blocks_;
  /// entity name -> type name, the union of every entity seen.
  std::map<std::string, std::string> entity_types_;
  /// (entity, property) -> refs.
  std::map<std::pair<std::string, std::string>, std::vector<StatementRef>>
      provenance_;
};

/// Read side: validates the whole file at Open (magic, version, size,
/// section table bounds, per-section CRC, table order) and then serves
/// zero-copy views into the mapping. A Snapshot is immutable once open;
/// concurrent readers need no synchronization.
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;

  /// Maps and validates `path`. InvalidArgument for format problems (bad
  /// magic, version mismatch, truncation, malformed or misordered
  /// tables); Internal for payload corruption (CRC mismatch). The
  /// "snapshot_read" fault point fires here as a simulated transient I/O
  /// failure (Internal), which OpinionIndex absorbs with bounded retries.
  Status Open(const std::string& path);

  std::string_view label() const { return label_; }

  size_t num_types() const { return types_.size(); }
  size_t num_entities() const { return entities_.size(); }
  size_t num_properties() const { return properties_.size(); }
  size_t num_opinions() const { return num_opinions_; }

  std::string_view TypeName(uint32_t index) const { return types_[index]; }
  std::string_view EntityName(uint32_t index) const {
    return entities_[index].name;
  }
  uint32_t EntityType(uint32_t index) const { return entities_[index].type; }
  std::string_view PropertyName(uint32_t index) const {
    return properties_[index];
  }

  /// One per-(type, property) block; `records` points at `record_count`
  /// 16-byte records inside the mapping, ascending by entity index. Every
  /// record's entity is of the block's type.
  struct BlockView {
    uint32_t type_index = 0;
    uint32_t property_index = 0;
    bool degraded = false;
    uint32_t record_count = 0;
    const char* records = nullptr;
  };
  /// Every block, ascending by (type, property).
  const std::vector<BlockView>& blocks() const { return blocks_; }

  /// The blocks of one type: a contiguous run of blocks(), ascending by
  /// property.
  std::span<const BlockView> TypeBlocks(uint32_t type_index) const {
    return std::span<const BlockView>(blocks_).subspan(
        type_block_begin_[type_index],
        type_block_begin_[type_index + 1] - type_block_begin_[type_index]);
  }

  /// The (type, property) block, or nullptr when nothing was mined for
  /// the pair. Binary search within the type's run.
  const BlockView* FindBlock(uint32_t type_index,
                             uint32_t property_index) const;

  struct RecordView {
    double posterior = 0.5;
    uint32_t entity_index = 0;
    Polarity polarity = Polarity::kNeutral;
  };
  static RecordView ReadRecord(const char* records, size_t i);

  /// Position of `entity_index`'s record in `block`, or -1. Binary search
  /// over the block's records in the mapping.
  static int64_t FindRecord(const BlockView& block, uint32_t entity_index);

  /// Number of (entity, property) pairs carrying provenance samples (0
  /// when the section is absent).
  size_t num_provenance_entries() const { return num_provenance_entries_; }

  /// Decodes the provenance samples of one (entity, property) pair from
  /// the mapping; empty when the pair has none. Scans only the entity's
  /// contiguous entries.
  std::vector<StatementRef> Provenance(uint32_t entity_index,
                                       uint32_t property_index) const;

 private:
  struct EntityEntry {
    std::string_view name;
    uint32_t type = 0;
  };

  Status Validate(std::string_view file);
  Status ValidateBlocks(std::string_view body);
  Status ValidateProvenance(std::string_view body);

  MmapFile file_;
  std::string_view label_;
  size_t num_opinions_ = 0;
  std::vector<std::string_view> types_;
  std::vector<EntityEntry> entities_;
  std::vector<std::string_view> properties_;
  std::vector<BlockView> blocks_;
  /// type index -> index of its first block; num_types() + 1 entries.
  std::vector<uint32_t> type_block_begin_;
  /// The provenance section payload (empty when absent) and, per entity
  /// index, the byte offset of its first entry in it; num_entities() + 1
  /// entries when the section is present.
  std::string_view provenance_;
  std::vector<size_t> provenance_begin_;
  size_t num_provenance_entries_ = 0;
};

}  // namespace serving
}  // namespace surveyor

#endif  // SURVEYOR_SERVING_SNAPSHOT_H_
