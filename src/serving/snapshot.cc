#include "serving/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "util/crc32.h"
#include "util/durable_file.h"
#include "util/fault.h"

namespace surveyor {
namespace serving {
namespace {

constexpr size_t kFileHeaderSize = 32;
constexpr size_t kSectionEntrySize = 24;
constexpr size_t kBlockHeaderSize = 24;
constexpr size_t kRecordSize = 16;
constexpr size_t kProvHeaderSize = 16;
constexpr size_t kProvRefSize = 16;
/// Version 1 writes six sections; anything larger than this in a header is
/// a corrupt or hostile file, not a future format (those bump the version).
constexpr uint32_t kMaxSections = 64;

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, sizeof(buf));
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, sizeof(buf));
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

/// u32 length prefix + raw bytes.
void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) out->push_back('\0');
}

/// Little-endian loads: one unaligned load on little-endian hosts.
uint32_t DecodeU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

uint64_t DecodeU64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

double DecodeF64(const char* p) { return std::bit_cast<double>(DecodeU64(p)); }

/// Bounds-checked sequential reader over one section payload. Every Read
/// fails with InvalidArgument on overrun, so a truncated or length-lying
/// section can never walk past the mapping.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU32(uint32_t* out) {
    SURVEYOR_RETURN_IF_ERROR(Need(4));
    *out = DecodeU32(data_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    SURVEYOR_RETURN_IF_ERROR(Need(8));
    *out = DecodeU64(data_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }

  Status ReadBytes(size_t n, std::string_view* out) {
    SURVEYOR_RETURN_IF_ERROR(Need(n));
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  /// Length-prefixed string; the view aliases the underlying mapping.
  Status ReadString(std::string_view* out) {
    uint32_t len = 0;
    SURVEYOR_RETURN_IF_ERROR(ReadU32(&len));
    return ReadBytes(len, out);
  }

 private:
  Status Need(size_t n) const {
    if (remaining() < n) {
      return Status::InvalidArgument("snapshot section truncated");
    }
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

Status SnapshotWriter::Add(const SnapshotOpinion& opinion) {
  if (opinion.entity.empty() || opinion.type.empty() ||
      opinion.property.empty()) {
    return Status::InvalidArgument(
        "snapshot opinion needs entity, type and property");
  }
  if (opinion.polarity == Polarity::kNeutral) {
    return Status::InvalidArgument("snapshot stores decisions, not neutral");
  }
  if (!(opinion.posterior >= 0.0 && opinion.posterior <= 1.0)) {
    return Status::InvalidArgument("posterior must be in [0, 1]");
  }
  SURVEYOR_RETURN_IF_ERROR(RegisterEntity(opinion.entity, opinion.type));
  Block& block = blocks_[PairKey{opinion.type, opinion.property}];
  block.degraded = block.degraded || opinion.degraded;
  block.records[opinion.entity] =
      Record{opinion.posterior, opinion.polarity};
  return Status::OK();
}

void SnapshotWriter::AddProvenance(const std::string& entity,
                                   const std::string& type,
                                   const std::string& property,
                                   std::vector<StatementRef> refs) {
  if (refs.empty() || !RegisterEntity(entity, type).ok()) return;
  provenance_[{entity, property}] = std::move(refs);
}

Status SnapshotWriter::RegisterEntity(const std::string& entity,
                                      const std::string& type) {
  const auto [it, inserted] = entity_types_.emplace(entity, type);
  if (!inserted && it->second != type) {
    return Status::InvalidArgument("entity '" + entity + "' is a " +
                                   it->second + " and cannot also be a " +
                                   type + ": snapshot names must be unique");
  }
  return Status::OK();
}

Status SnapshotWriter::AddResult(const PipelineResult& result,
                                 const KnowledgeBase& kb) {
  for (const PropertyTypeResult& pair : result.pairs) {
    const std::string& type_name = kb.TypeName(pair.evidence.type);
    for (size_t i = 0; i < pair.evidence.entities.size(); ++i) {
      if (pair.polarity[i] == Polarity::kNeutral) continue;
      SnapshotOpinion opinion;
      opinion.entity = kb.entity(pair.evidence.entities[i]).canonical_name;
      opinion.type = type_name;
      opinion.property = pair.evidence.property;
      opinion.posterior = pair.posterior[i];
      opinion.polarity = pair.polarity[i];
      opinion.degraded = pair.degraded;
      SURVEYOR_RETURN_IF_ERROR(Add(opinion));
    }
  }
  for (const auto& [key, refs] : result.provenance) {
    const Entity& entity = kb.entity(key.first);
    const std::string& type_name = kb.TypeName(entity.most_notable_type);
    SURVEYOR_RETURN_IF_ERROR(
        RegisterEntity(entity.canonical_name, type_name));
    AddProvenance(entity.canonical_name, type_name, key.second, refs);
  }
  return Status::OK();
}

std::string SnapshotWriter::Serialize() const {
  // String tables, index maps. std::map iteration makes each table sorted
  // and therefore the whole image deterministic.
  std::map<std::string, uint32_t> type_index;
  for (const auto& [key, block] : blocks_) type_index.emplace(key.type, 0);
  for (const auto& [entity, type] : entity_types_) type_index.emplace(type, 0);
  uint32_t next = 0;
  for (auto& [name, index] : type_index) index = next++;

  std::map<std::string, uint32_t> entity_index;
  next = 0;
  for (const auto& [name, type] : entity_types_) entity_index[name] = next++;

  std::map<std::string, uint32_t> property_index;
  for (const auto& [key, block] : blocks_) property_index.emplace(key.property, 0);
  for (const auto& [key, refs] : provenance_) property_index.emplace(key.second, 0);
  next = 0;
  for (auto& [name, index] : property_index) index = next++;

  uint64_t num_opinions = 0;
  for (const auto& [key, block] : blocks_) num_opinions += block.records.size();

  // --- Section payloads -------------------------------------------------
  std::string meta;
  AppendU64(&meta, num_opinions);
  AppendU64(&meta, blocks_.size());
  AppendString(&meta, label_);

  std::string types;
  AppendU32(&types, static_cast<uint32_t>(type_index.size()));
  for (const auto& [name, index] : type_index) AppendString(&types, name);

  std::string entities;
  AppendU32(&entities, static_cast<uint32_t>(entity_index.size()));
  for (const auto& [name, index] : entity_index) {
    AppendU32(&entities, type_index.at(entity_types_.at(name)));
    AppendString(&entities, name);
  }

  std::string properties;
  AppendU32(&properties, static_cast<uint32_t>(property_index.size()));
  for (const auto& [name, index] : property_index) {
    AppendString(&properties, name);
  }

  std::string opinions;
  AppendU32(&opinions, static_cast<uint32_t>(blocks_.size()));
  AppendU32(&opinions, 0);  // pad: keeps the header array 8-aligned
  uint64_t record_offset = 8 + kBlockHeaderSize * blocks_.size();
  for (const auto& [key, block] : blocks_) {
    AppendU32(&opinions, type_index.at(key.type));
    AppendU32(&opinions, property_index.at(key.property));
    AppendU32(&opinions, block.degraded ? 1 : 0);
    AppendU32(&opinions, static_cast<uint32_t>(block.records.size()));
    AppendU64(&opinions, record_offset);
    record_offset += kRecordSize * block.records.size();
  }
  for (const auto& [key, block] : blocks_) {
    for (const auto& [entity, record] : block.records) {
      AppendF64(&opinions, record.posterior);
      AppendU32(&opinions, entity_index.at(entity));
      opinions.push_back(static_cast<char>(record.polarity));
      opinions.append(3, '\0');
    }
  }

  std::string provenance;
  if (!provenance_.empty()) {
    AppendU32(&provenance, static_cast<uint32_t>(provenance_.size()));
    AppendU32(&provenance, 0);  // pad
    for (const auto& [key, refs] : provenance_) {
      AppendU32(&provenance, entity_index.at(key.first));
      AppendU32(&provenance, property_index.at(key.second));
      AppendU32(&provenance, static_cast<uint32_t>(refs.size()));
      AppendU32(&provenance, 0);  // pad
      for (const StatementRef& ref : refs) {
        AppendU64(&provenance, static_cast<uint64_t>(ref.doc_id));
        AppendU32(&provenance, static_cast<uint32_t>(ref.sentence_index));
        AppendU32(&provenance, ref.positive ? 1 : 0);
      }
    }
  }

  // --- Assembly ---------------------------------------------------------
  std::vector<std::pair<uint32_t, const std::string*>> sections = {
      {kSectionMeta, &meta},
      {kSectionTypes, &types},
      {kSectionEntities, &entities},
      {kSectionProperties, &properties},
      {kSectionOpinions, &opinions},
  };
  if (!provenance.empty()) sections.emplace_back(kSectionProvenance, &provenance);

  std::string payload;  // everything after the section table
  struct Placed {
    uint32_t id;
    uint32_t crc;
    uint64_t offset;
    uint64_t size;
  };
  std::vector<Placed> placed;
  const size_t table_end =
      kFileHeaderSize + kSectionEntrySize * sections.size();
  for (const auto& [id, body] : sections) {
    PadTo8(&payload);
    placed.push_back({id, Crc32(*body), table_end + payload.size(),
                      body->size()});
    payload += *body;
  }
  PadTo8(&payload);

  std::string out;
  out.reserve(table_end + payload.size());
  out.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  AppendU32(&out, kSnapshotFormatVersion);
  AppendU32(&out, static_cast<uint32_t>(sections.size()));
  AppendU64(&out, table_end + payload.size());  // total file size
  AppendU64(&out, 0);                           // reserved
  for (const Placed& p : placed) {
    AppendU32(&out, p.id);
    AppendU32(&out, p.crc);
    AppendU64(&out, p.offset);
    AppendU64(&out, p.size);
  }
  out += payload;
  return out;
}

Status SnapshotWriter::WriteToFile(const std::string& path) const {
  // Publish atomically: a crash (or a full disk) mid-write must never
  // leave a torn file at the final path — the serving tier hot-swaps off
  // this file while queries are in flight, and a restart trusts whatever
  // it finds there. WriteFileDurable reports short writes as errors
  // instead of silently truncating.
  return WriteFileDurable(path, Serialize());
}

Snapshot::RecordView Snapshot::ReadRecord(const char* records, size_t i) {
  const char* p = records + i * kRecordSize;
  RecordView view;
  view.posterior = DecodeF64(p);
  view.entity_index = DecodeU32(p + 8);
  view.polarity = static_cast<Polarity>(static_cast<int8_t>(p[12]));
  return view;
}

Status Snapshot::Open(const std::string& path) {
  SURVEYOR_SPAN("snapshot.open");
  if (SURVEYOR_FAULT("snapshot_read")) {
    return Status::Internal("injected fault at snapshot_read: " + path);
  }
  MmapFile file;
  SURVEYOR_RETURN_IF_ERROR(file.Open(path));
  // Swap in only after full validation: a failed Open leaves the previous
  // snapshot (if any) untouched.
  Snapshot fresh;
  fresh.file_ = std::move(file);
  SURVEYOR_RETURN_IF_ERROR(fresh.Validate(fresh.file_.data()));
  *this = std::move(fresh);
  return Status::OK();
}

Status Snapshot::Validate(std::string_view file) {
  if (file.size() < kFileHeaderSize) {
    return Status::InvalidArgument("snapshot too small for a header");
  }
  if (std::memcmp(file.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument("not an opinion snapshot (bad magic)");
  }
  const uint32_t version = DecodeU32(file.data() + 8);
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "snapshot format version " + std::to_string(version) +
        " unsupported (this build reads version " +
        std::to_string(kSnapshotFormatVersion) + ")");
  }
  const uint32_t section_count = DecodeU32(file.data() + 12);
  const uint64_t declared_size = DecodeU64(file.data() + 16);
  if (declared_size != file.size()) {
    return Status::InvalidArgument(
        "snapshot truncated: header declares " +
        std::to_string(declared_size) + " bytes, file has " +
        std::to_string(file.size()));
  }
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::InvalidArgument("snapshot section count out of range");
  }
  const size_t table_end =
      kFileHeaderSize + kSectionEntrySize * section_count;
  if (file.size() < table_end) {
    return Status::InvalidArgument("snapshot truncated in section table");
  }

  std::map<uint32_t, std::string_view> payloads;
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = file.data() + kFileHeaderSize + kSectionEntrySize * i;
    const uint32_t id = DecodeU32(entry);
    const uint32_t crc = DecodeU32(entry + 4);
    const uint64_t offset = DecodeU64(entry + 8);
    const uint64_t size = DecodeU64(entry + 16);
    if (offset < table_end || offset > file.size() ||
        size > file.size() - offset) {
      return Status::InvalidArgument("snapshot section out of bounds");
    }
    const std::string_view body = file.substr(offset, size);
    if (Crc32(body) != crc) {
      return Status::Internal("snapshot section " + std::to_string(id) +
                              " failed its CRC check (corrupt file)");
    }
    if (!payloads.emplace(id, body).second) {
      return Status::InvalidArgument("snapshot has duplicate sections");
    }
  }
  for (uint32_t id :
       {kSectionMeta, kSectionTypes, kSectionEntities, kSectionProperties,
        kSectionOpinions}) {
    if (payloads.count(id) == 0) {
      return Status::InvalidArgument("snapshot missing required section " +
                                     std::to_string(id));
    }
  }

  // --- meta -------------------------------------------------------------
  {
    Cursor c(payloads[kSectionMeta]);
    uint64_t declared_opinions = 0, declared_blocks = 0;
    SURVEYOR_RETURN_IF_ERROR(c.ReadU64(&declared_opinions));
    SURVEYOR_RETURN_IF_ERROR(c.ReadU64(&declared_blocks));
    SURVEYOR_RETURN_IF_ERROR(c.ReadString(&label_));
    num_opinions_ = declared_opinions;
  }

  // --- string tables ----------------------------------------------------
  auto read_table = [](std::string_view body,
                       std::vector<std::string_view>* out) -> Status {
    Cursor c(body);
    uint32_t count = 0;
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&count));
    if (count > body.size()) {
      return Status::InvalidArgument("snapshot string table count too large");
    }
    out->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view s;
      SURVEYOR_RETURN_IF_ERROR(c.ReadString(&s));
      out->push_back(s);
    }
    return Status::OK();
  };
  SURVEYOR_RETURN_IF_ERROR(read_table(payloads[kSectionTypes], &types_));
  SURVEYOR_RETURN_IF_ERROR(
      read_table(payloads[kSectionProperties], &properties_));

  {
    Cursor c(payloads[kSectionEntities]);
    uint32_t count = 0;
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&count));
    if (count > payloads[kSectionEntities].size()) {
      return Status::InvalidArgument("snapshot entity count too large");
    }
    entities_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      EntityEntry entry;
      SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&entry.type));
      SURVEYOR_RETURN_IF_ERROR(c.ReadString(&entry.name));
      if (entry.type >= types_.size()) {
        return Status::InvalidArgument("snapshot entity references a type "
                                       "beyond the type table");
      }
      entities_.push_back(entry);
    }
  }

  SURVEYOR_RETURN_IF_ERROR(ValidateBlocks(payloads[kSectionOpinions]));
  if (payloads.count(kSectionProvenance) > 0) {
    SURVEYOR_RETURN_IF_ERROR(
        ValidateProvenance(payloads[kSectionProvenance]));
  }
  return Status::OK();
}

Status Snapshot::ValidateBlocks(std::string_view body) {
  Cursor c(body);
  uint32_t block_count = 0, pad = 0;
  SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&block_count));
  SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&pad));
  if (block_count > body.size()) {
    return Status::InvalidArgument("snapshot block count too large");
  }
  blocks_.reserve(block_count);
  uint64_t total_records = 0;
  for (uint32_t i = 0; i < block_count; ++i) {
    BlockView block;
    uint32_t degraded = 0;
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&block.type_index));
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&block.property_index));
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&degraded));
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&block.record_count));
    uint64_t record_offset = 0;
    SURVEYOR_RETURN_IF_ERROR(c.ReadU64(&record_offset));
    block.degraded = degraded != 0;
    if (block.type_index >= types_.size() ||
        block.property_index >= properties_.size()) {
      return Status::InvalidArgument(
          "snapshot block references beyond its string tables");
    }
    if (!blocks_.empty() &&
        std::pair(blocks_.back().type_index, blocks_.back().property_index) >=
            std::pair(block.type_index, block.property_index)) {
      return Status::InvalidArgument(
          "snapshot blocks out of (type, property) order");
    }
    if (record_offset > body.size() ||
        static_cast<uint64_t>(block.record_count) * kRecordSize >
            body.size() - record_offset) {
      return Status::InvalidArgument("snapshot block records out of bounds");
    }
    block.records = body.data() + record_offset;
    total_records += block.record_count;
    blocks_.push_back(block);
  }
  for (const BlockView& block : blocks_) {
    for (uint32_t i = 0; i < block.record_count; ++i) {
      const RecordView record = ReadRecord(block.records, i);
      if (record.entity_index >= entities_.size()) {
        return Status::InvalidArgument(
            "snapshot record references beyond the entity table");
      }
      if (i > 0 && DecodeU32(block.records + (i - 1) * kRecordSize + 8) >=
                       record.entity_index) {
        return Status::InvalidArgument(
            "snapshot records out of entity order within a block");
      }
      if (entities_[record.entity_index].type != block.type_index) {
        return Status::InvalidArgument(
            "snapshot record's entity is not of its block's type");
      }
      // Bitwise or: one predictable branch, not one per polarity (which
      // is a coin flip record to record).
      if (!((record.polarity == Polarity::kPositive) |
            (record.polarity == Polarity::kNegative))) {
        return Status::InvalidArgument(
            "snapshot record has a non-decision polarity");
      }
      // What SnapshotWriter::Add accepts; a NaN would also break the
      // strict weak order the query sorts rely on.
      if (!(record.posterior >= 0.0 && record.posterior <= 1.0)) {
        return Status::InvalidArgument(
            "snapshot record posterior outside [0, 1]");
      }
    }
  }
  if (total_records != num_opinions_) {
    return Status::InvalidArgument(
        "snapshot meta/opinion count mismatch: meta says " +
        std::to_string(num_opinions_) + ", blocks hold " +
        std::to_string(total_records));
  }
  // Blocks ascend by type, so each type's blocks are one run.
  type_block_begin_.assign(types_.size() + 1, 0);
  uint32_t b = 0;
  for (uint32_t t = 0; t <= types_.size(); ++t) {
    while (b < blocks_.size() && blocks_[b].type_index < t) ++b;
    type_block_begin_[t] = b;
  }
  return Status::OK();
}

Status Snapshot::ValidateProvenance(std::string_view body) {
  Cursor c(body);
  uint32_t count = 0, pad = 0;
  SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&count));
  SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&pad));
  if (count > body.size()) {
    return Status::InvalidArgument("snapshot provenance count too large");
  }
  provenance_begin_.assign(entities_.size() + 1, 0);
  // provenance_begin_[e] is the offset of entity e's first entry, or of
  // the next entry after e when e has none, so e's entries are the run
  // [provenance_begin_[e], provenance_begin_[e + 1]).
  uint32_t next_entity = 0;
  uint32_t last_entity = 0, last_property = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const size_t offset = body.size() - c.remaining();
    uint32_t entity_index = 0, property_index = 0, ref_count = 0;
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&entity_index));
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&property_index));
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&ref_count));
    SURVEYOR_RETURN_IF_ERROR(c.ReadU32(&pad));
    if (entity_index >= entities_.size() ||
        property_index >= properties_.size()) {
      return Status::InvalidArgument(
          "snapshot provenance references beyond its string tables");
    }
    if (i > 0 && std::pair(last_entity, last_property) >=
                     std::pair(entity_index, property_index)) {
      return Status::InvalidArgument(
          "snapshot provenance out of (entity, property) order");
    }
    if (ref_count > c.remaining() / kProvRefSize) {
      return Status::InvalidArgument("snapshot provenance truncated");
    }
    std::string_view refs;
    SURVEYOR_RETURN_IF_ERROR(c.ReadBytes(ref_count * kProvRefSize, &refs));
    for (; next_entity <= entity_index; ++next_entity) {
      provenance_begin_[next_entity] = offset;
    }
    last_entity = entity_index;
    last_property = property_index;
  }
  const size_t end = body.size() - c.remaining();
  for (; next_entity <= entities_.size(); ++next_entity) {
    provenance_begin_[next_entity] = end;
  }
  provenance_ = body;
  num_provenance_entries_ = count;
  return Status::OK();
}

const Snapshot::BlockView* Snapshot::FindBlock(uint32_t type_index,
                                               uint32_t property_index) const {
  const std::span<const BlockView> run = TypeBlocks(type_index);
  const auto it = std::lower_bound(
      run.begin(), run.end(), property_index,
      [](const BlockView& block, uint32_t property) {
        return block.property_index < property;
      });
  if (it == run.end() || it->property_index != property_index) return nullptr;
  return &*it;
}

int64_t Snapshot::FindRecord(const BlockView& block, uint32_t entity_index) {
  uint32_t lo = 0, hi = block.record_count;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    const uint32_t at = DecodeU32(block.records + mid * kRecordSize + 8);
    if (at == entity_index) return mid;
    if (at < entity_index) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return -1;
}

std::vector<StatementRef> Snapshot::Provenance(uint32_t entity_index,
                                               uint32_t property_index) const {
  std::vector<StatementRef> refs;
  if (provenance_begin_.empty()) return refs;
  // Open validated every entry in [begin, end) and their order.
  const char* p = provenance_.data() + provenance_begin_[entity_index];
  const char* const end =
      provenance_.data() + provenance_begin_[entity_index + 1];
  while (p < end) {
    const uint32_t property = DecodeU32(p + 4);
    const uint32_t ref_count = DecodeU32(p + 8);
    p += kProvHeaderSize;
    if (property > property_index) break;
    if (property == property_index) {
      refs.reserve(ref_count);
      for (uint32_t r = 0; r < ref_count; ++r, p += kProvRefSize) {
        StatementRef ref;
        ref.doc_id = static_cast<int64_t>(DecodeU64(p));
        ref.sentence_index = static_cast<int>(DecodeU32(p + 8));
        ref.positive = DecodeU32(p + 12) != 0;
        refs.push_back(ref);
      }
      break;
    }
    p += ref_count * kProvRefSize;
  }
  return refs;
}

}  // namespace serving
}  // namespace surveyor
