// Hostile-snapshot tests: seeded mutations of a small valid image (bit
// flips, truncations, splices, and mutations whose section CRCs are
// recomputed so only the structural checks can catch them). Open and
// LoadGeneration must either refuse the bytes or serve a generation that
// answers every query shape for every name it holds without fault; the
// ASan/UBSan job runs this suite.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serving/opinion_index.h"
#include "serving/snapshot.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace surveyor {
namespace serving {
namespace {

// Layout constants of format version 1 (see snapshot.h).
constexpr size_t kHeaderSize = 32;
constexpr size_t kEntrySize = 24;
constexpr size_t kBlockHeaderSize = 24;
constexpr size_t kRecordSize = 16;

uint32_t GetU32(const std::string& image, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(image[pos + i]))
         << (8 * i);
  }
  return v;
}

uint64_t GetU64(const std::string& image, size_t pos) {
  return GetU32(image, pos) |
         (static_cast<uint64_t>(GetU32(image, pos + 4)) << 32);
}

void PutU32(std::string* image, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*image)[pos + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64(std::string* image, size_t pos, uint64_t v) {
  PutU32(image, pos, static_cast<uint32_t>(v));
  PutU32(image, pos + 4, static_cast<uint32_t>(v >> 32));
}

/// Where one section's payload lies; `entry` is its section-table slot.
struct Section {
  size_t entry = 0;
  size_t offset = 0;
  size_t size = 0;
};

/// The sections whose table entries and payloads lie inside `image`.
std::vector<std::pair<uint32_t, Section>> Sections(const std::string& image) {
  std::vector<std::pair<uint32_t, Section>> out;
  if (image.size() < kHeaderSize) return out;
  const uint32_t count = std::min<uint32_t>(GetU32(image, 12), 64);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry = kHeaderSize + kEntrySize * i;
    if (entry + kEntrySize > image.size()) break;
    const uint64_t offset = GetU64(image, entry + 8);
    const uint64_t size = GetU64(image, entry + 16);
    if (offset > image.size() || size > image.size() - offset) continue;
    out.emplace_back(GetU32(image, entry), Section{entry, offset, size});
  }
  return out;
}

Section Find(const std::string& image, uint32_t id) {
  for (const auto& [section_id, section] : Sections(image)) {
    if (section_id == id) return section;
  }
  ADD_FAILURE() << "no section " << id;
  return {};
}

/// Recomputes every in-bounds section CRC, so a payload mutation reaches
/// the structural checks instead of failing the checksum.
void RepairCrcs(std::string* image) {
  for (const auto& [id, section] : Sections(*image)) {
    PutU32(image, section.entry + 4,
           Crc32(std::string_view(*image).substr(section.offset,
                                                 section.size)));
  }
}

SnapshotOpinion Opinion(const std::string& entity, const std::string& type,
                        const std::string& property, double posterior) {
  SnapshotOpinion o;
  o.entity = entity;
  o.type = type;
  o.property = property;
  o.posterior = posterior;
  o.polarity = posterior > 0.5 ? Polarity::kPositive : Polarity::kNegative;
  return o;
}

/// Entities kitten 0, koala 1, lisbon 2, paris 3, spider 4; types animal
/// 0, city 1; properties big 0, cute 1, hilly 2. Blocks in order:
/// (animal, big) [kitten], (animal, cute) [kitten, koala, spider],
/// (city, big) [paris], (city, hilly) [lisbon]. Provenance entries:
/// (kitten, cute) and (koala, cute) with two refs each, (lisbon, hilly)
/// with one.
std::string SmallImage() {
  SnapshotWriter writer;
  writer.set_label("hostile");
  EXPECT_TRUE(writer.Add(Opinion("kitten", "animal", "cute", 0.97)).ok());
  EXPECT_TRUE(writer.Add(Opinion("kitten", "animal", "big", 0.2)).ok());
  EXPECT_TRUE(writer.Add(Opinion("koala", "animal", "cute", 0.91)).ok());
  EXPECT_TRUE(writer.Add(Opinion("spider", "animal", "cute", 0.12)).ok());
  EXPECT_TRUE(writer.Add(Opinion("lisbon", "city", "hilly", 0.88)).ok());
  EXPECT_TRUE(writer.Add(Opinion("paris", "city", "big", 0.9)).ok());
  writer.AddProvenance("kitten", "animal", "cute",
                       {{11, 1, true}, {12, 0, false}});
  writer.AddProvenance("koala", "animal", "cute",
                       {{21, 2, true}, {22, 3, true}});
  writer.AddProvenance("lisbon", "city", "hilly", {{31, 0, true}});
  return writer.Serialize();
}

std::string WriteImage(const std::string& name, const std::string& image) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  return path;
}

Status OpenImage(const std::string& image) {
  Snapshot snapshot;
  return snapshot.Open(WriteImage("hostile-targeted.surv", image));
}

/// Drives every query shape for every name the loaded generation holds.
void ExerciseEverything(const OpinionIndex& index) {
  const GenerationPtr generation = index.generation();
  ASSERT_NE(generation, nullptr);
  const Snapshot& snapshot = generation->snapshot();
  std::vector<std::pair<std::string, std::string>> batch;
  for (uint32_t e = 0; e < snapshot.num_entities(); ++e) {
    const std::string entity(snapshot.EntityName(e));
    for (uint32_t p = 0; p < snapshot.num_properties(); ++p) {
      const std::string property(snapshot.PropertyName(p));
      const StatusOr<ServedOpinion> got = index.Lookup(entity, property);
      if (got.ok()) {
        EXPECT_EQ(ToLower(got->entity), ToLower(entity));
        EXPECT_EQ(ToLower(got->property), ToLower(property));
      }
      (void)snapshot.Provenance(e, p);
      batch.emplace_back(entity, property);
    }
    for (const ServedOpinion& opinion : index.PropertiesOf(entity)) {
      EXPECT_EQ(ToLower(opinion.entity), ToLower(entity));
    }
    EXPECT_FALSE(index.PrefixScan(entity).empty());
    (void)index.PrefixScan(entity.substr(0, 1), 2);
  }
  (void)index.BatchLookup(batch);
  for (uint32_t t = 0; t < snapshot.num_types(); ++t) {
    for (uint32_t p = 0; p < snapshot.num_properties(); ++p) {
      for (const ServedOpinion& opinion :
           index.QueryType(snapshot.TypeName(t), snapshot.PropertyName(p))) {
        EXPECT_EQ(opinion.polarity, Polarity::kPositive);
      }
    }
  }
}

class SnapshotHostileTest : public testing::Test {
 protected:
  ScopedFaults disarm_{""};
};

TEST_F(SnapshotHostileTest, SeededMutationsAreRefusedOrServedSafely) {
  const std::string image = SmallImage();
  OpinionIndexOptions options;
  options.retry.max_attempts = 1;  // a corrupt file is not transient
  Rng rng(20260419);
  size_t accepted = 0, refused = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string m = image;
    const uint64_t kind = rng.UniformInt(6);
    if (kind == 0) {  // bit flips anywhere
      for (uint64_t n = 1 + rng.UniformInt(4); n > 0; --n) {
        m[rng.Index(m.size())] ^= static_cast<char>(1 << rng.UniformInt(8));
      }
    } else if (kind == 1) {  // truncation
      m.resize(rng.Index(m.size()));
    } else if (kind == 2) {  // splice one range over another
      const size_t len = 1 + rng.Index(64);
      const size_t from = rng.Index(m.size() - len);
      const size_t to = rng.Index(m.size() - len);
      m.replace(to, len, image, from, len);
    } else if (kind == 3) {  // insert or delete bytes, sometimes resized
      const size_t at = rng.Index(m.size());
      if (rng.Bernoulli(0.5)) {
        m.insert(at, image.substr(rng.Index(image.size() - 8), 8));
      } else {
        m.erase(at, 1 + rng.Index(8));
      }
      if (rng.Bernoulli(0.5) && m.size() >= kHeaderSize) {
        PutU64(&m, 16, m.size());
      }
    } else {  // payload mutation with repaired CRCs
      const auto sections = Sections(m);
      const Section& s = sections[rng.Index(sections.size())].second;
      if (s.size < 4) continue;
      for (uint64_t n = 1 + rng.UniformInt(3); n > 0; --n) {
        const size_t pos = s.offset + (rng.Index(s.size - 3) & ~size_t{3});
        if (kind == 4) {
          m[pos + rng.UniformInt(4)] ^=
              static_cast<char>(1 << rng.UniformInt(8));
          continue;
        }
        const uint32_t old = GetU32(m, pos);
        const uint32_t values[] = {0u,       1u,        old + 1,
                                   old - 1,  0xFFFFFFFFu, 0x7FFFFFFFu,
                                   old ^ 0x80000000u, 5u};
        PutU32(&m, pos, values[rng.UniformInt(8)]);
      }
      RepairCrcs(&m);
    }

    OpinionIndex index(options);
    const Status loaded =
        index.LoadGeneration(WriteImage("hostile.surv", m), 1);
    if (!loaded.ok()) {
      EXPECT_FALSE(index.loaded());
      ++refused;
      continue;
    }
    ++accepted;
    ExerciseEverything(index);
    if (testing::Test::HasFatalFailure()) {
      FAIL() << "iteration " << iteration << " kind " << kind;
    }
  }
  // Both outcomes occur: the loop reaches the serving code with hostile
  // but self-consistent files, not only the checks at Open.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(refused, 1000u);
}

TEST_F(SnapshotHostileTest, UnmutatedImageServesEveryName) {
  OpinionIndex index;
  ASSERT_TRUE(index.Load(WriteImage("hostile-clean.surv", SmallImage())).ok());
  ExerciseEverything(index);
  EXPECT_TRUE(index.Lookup("KITTEN", "cute").ok());
}

TEST_F(SnapshotHostileTest, OutOfOrderBlockIsInvalidArgument) {
  std::string image = SmallImage();
  const Section opinions = Find(image, kSectionOpinions);
  // Swap the headers of (animal, big) and (animal, cute).
  const size_t first = opinions.offset + 8;
  const std::string a = image.substr(first, kBlockHeaderSize);
  const std::string b =
      image.substr(first + kBlockHeaderSize, kBlockHeaderSize);
  image.replace(first, kBlockHeaderSize, b);
  image.replace(first + kBlockHeaderSize, kBlockHeaderSize, a);
  RepairCrcs(&image);
  const Status status = OpenImage(image);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("order"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotHostileTest, OutOfOrderRecordIsInvalidArgument) {
  std::string image = SmallImage();
  const Section opinions = Find(image, kSectionOpinions);
  // Block 1, (animal, cute), holds kitten, koala, spider: swap the first
  // two records.
  const size_t header = opinions.offset + 8 + kBlockHeaderSize;
  ASSERT_EQ(GetU32(image, header + 12), 3u);
  const size_t records = opinions.offset + GetU64(image, header + 16);
  const std::string a = image.substr(records, kRecordSize);
  const std::string b = image.substr(records + kRecordSize, kRecordSize);
  image.replace(records, kRecordSize, b);
  image.replace(records + kRecordSize, kRecordSize, a);
  RepairCrcs(&image);
  const Status status = OpenImage(image);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("order"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotHostileTest, OutOfOrderProvenanceIsInvalidArgument) {
  std::string image = SmallImage();
  const Section provenance = Find(image, kSectionProvenance);
  // (kitten, cute) and (koala, cute) both hold two refs: 16 + 2 * 16 bytes.
  constexpr size_t kEntry = 48;
  const size_t first = provenance.offset + 8;
  ASSERT_EQ(GetU32(image, first + 8), 2u);
  ASSERT_EQ(GetU32(image, first + kEntry + 8), 2u);
  const std::string a = image.substr(first, kEntry);
  const std::string b = image.substr(first + kEntry, kEntry);
  image.replace(first, kEntry, b);
  image.replace(first + kEntry, kEntry, a);
  RepairCrcs(&image);
  const Status status = OpenImage(image);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("order"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotHostileTest, RecordOfAnotherTypeIsInvalidArgument) {
  std::string image = SmallImage();
  const Section opinions = Find(image, kSectionOpinions);
  // Block 2, (city, big), holds paris alone; point it at kitten (an
  // animal). A lookup goes through the entity's own type, so the record
  // would be unreachable.
  const size_t header = opinions.offset + 8 + 2 * kBlockHeaderSize;
  ASSERT_EQ(GetU32(image, header + 12), 1u);
  const size_t record = opinions.offset + GetU64(image, header + 16);
  ASSERT_EQ(GetU32(image, record + 8), 3u);
  PutU32(&image, record + 8, 0);
  RepairCrcs(&image);
  const Status status = OpenImage(image);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("type"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotHostileTest, PosteriorOutsideUnitIntervalIsInvalidArgument) {
  const Section opinions = Find(SmallImage(), kSectionOpinions);
  for (const double bad :
       {-0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    std::string image = SmallImage();
    const size_t record =
        opinions.offset + GetU64(image, opinions.offset + 8 + 16);
    uint64_t bits = 0;
    std::memcpy(&bits, &bad, sizeof(bits));
    PutU64(&image, record, bits);
    RepairCrcs(&image);
    const Status status = OpenImage(image);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << bad << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
