#include "serving/snapshot.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "kb/knowledge_base.h"
#include "util/fault.h"
#include "util/status.h"

namespace surveyor {
namespace serving {
namespace {

SnapshotOpinion MakeOpinion(const std::string& entity, const std::string& type,
                            const std::string& property, double posterior,
                            Polarity polarity) {
  SnapshotOpinion opinion;
  opinion.entity = entity;
  opinion.type = type;
  opinion.property = property;
  opinion.posterior = posterior;
  opinion.polarity = polarity;
  return opinion;
}

/// A writer with a small, representative data set: two types, two
/// properties, a degraded block and a provenance sample.
SnapshotWriter MakeWriter() {
  SnapshotWriter writer;
  writer.set_label("test snapshot");
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("kitten", "animal", "cute", 0.97,
                                   Polarity::kPositive))
                  .ok());
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("spider", "animal", "cute", 0.12,
                                   Polarity::kNegative))
                  .ok());
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("lisbon", "city", "hilly", 0.88,
                                   Polarity::kPositive))
                  .ok());
  writer.AddProvenance("kitten", "animal", "cute",
                       {{1234, 2, true}, {5678, 0, false}});
  return writer;
}

std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

/// Snapshot opens must behave deterministically here even when the CI
/// chaos job arms snapshot_read through the environment, so the fixture
/// disarms fault injection for the test's scope (the repo-wide idiom for
/// exact-behavior tests). The fault path itself is tested explicitly
/// below with its own ScopedFaults.
class SnapshotTest : public testing::Test {
 protected:
  ScopedFaults disarm_{""};
};

TEST(SnapshotWriterTest, RejectsUnusableOpinions) {
  SnapshotWriter writer;
  // Neutral opinions carry no decision.
  EXPECT_EQ(writer
                .Add(MakeOpinion("kitten", "animal", "cute", 0.5,
                                 Polarity::kNeutral))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(writer
                .Add(MakeOpinion("", "animal", "cute", 0.9,
                                 Polarity::kPositive))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(writer
                .Add(MakeOpinion("kitten", "animal", "cute", 1.5,
                                 Polarity::kPositive))
                .code(),
            StatusCode::kInvalidArgument);
}

// The snapshot keys entities by name, so one name under two types (the
// knowledge base accepts a "paris" city next to a "paris" person) would
// let a lookup answer for the wrong entity. The writer refuses it.
TEST(SnapshotWriterTest, RejectsOneNameUnderTwoTypes) {
  SnapshotWriter writer;
  ASSERT_TRUE(writer
                  .Add(MakeOpinion("paris", "city", "big", 0.9,
                                   Polarity::kPositive))
                  .ok());
  // Same name, same type: another property of the same entity, and a
  // second Add for a pair replaces the first.
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("paris", "city", "old", 0.8,
                                   Polarity::kPositive))
                  .ok());
  EXPECT_TRUE(writer
                  .Add(MakeOpinion("paris", "city", "big", 0.1,
                                   Polarity::kNegative))
                  .ok());
  EXPECT_EQ(writer
                .Add(MakeOpinion("paris", "person", "tall", 0.7,
                                 Polarity::kPositive))
                .code(),
            StatusCode::kInvalidArgument);
  // Colliding provenance is dropped, never attached to the city.
  writer.AddProvenance("paris", "person", "tall", {{7, 0, true}});

  const std::string path = WriteTempFile("collision.surv", writer.Serialize());
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  EXPECT_EQ(snapshot.num_opinions(), 2u);
  EXPECT_EQ(snapshot.num_types(), 1u);
  EXPECT_EQ(snapshot.num_provenance_entries(), 0u);
  for (const Snapshot::BlockView& block : snapshot.blocks()) {
    if (snapshot.PropertyName(block.property_index) != "big") continue;
    ASSERT_EQ(block.record_count, 1u);
    EXPECT_EQ(Snapshot::ReadRecord(block.records, 0).polarity,
              Polarity::kNegative);
  }
}

TEST(SnapshotWriterTest, AddResultRejectsOneNameUnderTwoTypes) {
  KnowledgeBase kb;
  const TypeId city = kb.AddType("city");
  const TypeId person = kb.AddType("person");
  const EntityId paris_city = kb.AddEntity("paris", city).value();
  const EntityId paris_person = kb.AddEntity("paris", person).value();

  const auto pair = [](TypeId type, EntityId entity, const char* property) {
    PropertyTypeResult result;
    result.evidence.type = type;
    result.evidence.property = property;
    result.evidence.entities = {entity};
    result.posterior = {0.9};
    result.polarity = {Polarity::kPositive};
    return result;
  };
  PipelineResult opinions;
  opinions.pairs.push_back(pair(city, paris_city, "big"));
  opinions.pairs.push_back(pair(person, paris_person, "tall"));
  SnapshotWriter writer;
  EXPECT_EQ(writer.AddResult(opinions, kb).code(),
            StatusCode::kInvalidArgument);

  // The collision is caught through provenance alone as well.
  PipelineResult with_provenance;
  with_provenance.pairs.push_back(pair(city, paris_city, "big"));
  with_provenance.provenance[{paris_person, "tall"}] = {{7, 0, true}};
  SnapshotWriter provenance_writer;
  EXPECT_EQ(provenance_writer.AddResult(with_provenance, kb).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  const std::string path =
      WriteTempFile("roundtrip.surv", MakeWriter().Serialize());

  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  EXPECT_EQ(snapshot.label(), "test snapshot");
  EXPECT_EQ(snapshot.num_opinions(), 3u);
  EXPECT_EQ(snapshot.num_types(), 2u);
  EXPECT_EQ(snapshot.num_entities(), 3u);
  EXPECT_EQ(snapshot.num_properties(), 2u);

  // Find the (animal, cute) block and check both records decode.
  bool found = false;
  for (const Snapshot::BlockView& block : snapshot.blocks()) {
    if (snapshot.TypeName(block.type_index) != "animal" ||
        snapshot.PropertyName(block.property_index) != "cute") {
      continue;
    }
    found = true;
    ASSERT_EQ(block.record_count, 2u);
    for (uint32_t i = 0; i < block.record_count; ++i) {
      const Snapshot::RecordView record =
          Snapshot::ReadRecord(block.records, i);
      const std::string_view entity = snapshot.EntityName(record.entity_index);
      if (entity == "kitten") {
        EXPECT_DOUBLE_EQ(record.posterior, 0.97);
        EXPECT_EQ(record.polarity, Polarity::kPositive);
      } else {
        EXPECT_EQ(entity, "spider");
        EXPECT_DOUBLE_EQ(record.posterior, 0.12);
        EXPECT_EQ(record.polarity, Polarity::kNegative);
      }
      EXPECT_EQ(snapshot.TypeName(snapshot.EntityType(record.entity_index)),
                "animal");
    }
  }
  EXPECT_TRUE(found);

  // Exactly one pair carries provenance: (kitten, cute).
  ASSERT_EQ(snapshot.num_provenance_entries(), 1u);
  std::vector<StatementRef> refs;
  for (uint32_t e = 0; e < snapshot.num_entities(); ++e) {
    for (uint32_t p = 0; p < snapshot.num_properties(); ++p) {
      std::vector<StatementRef> pair_refs = snapshot.Provenance(e, p);
      if (pair_refs.empty()) continue;
      EXPECT_EQ(snapshot.EntityName(e), "kitten");
      EXPECT_EQ(snapshot.PropertyName(p), "cute");
      EXPECT_TRUE(refs.empty());
      refs = std::move(pair_refs);
    }
  }
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].doc_id, 1234);
  EXPECT_EQ(refs[0].sentence_index, 2);
  EXPECT_TRUE(refs[0].positive);
  EXPECT_FALSE(refs[1].positive);
}

TEST_F(SnapshotTest, SerializationIsInsertionOrderIndependent) {
  SnapshotWriter forward = MakeWriter();

  SnapshotWriter reversed;
  reversed.set_label("test snapshot");
  ASSERT_TRUE(reversed
                  .Add(MakeOpinion("lisbon", "city", "hilly", 0.88,
                                   Polarity::kPositive))
                  .ok());
  ASSERT_TRUE(reversed
                  .Add(MakeOpinion("spider", "animal", "cute", 0.12,
                                   Polarity::kNegative))
                  .ok());
  ASSERT_TRUE(reversed
                  .Add(MakeOpinion("kitten", "animal", "cute", 0.97,
                                   Polarity::kPositive))
                  .ok());
  reversed.AddProvenance("kitten", "animal", "cute",
                         {{1234, 2, true}, {5678, 0, false}});

  EXPECT_EQ(forward.Serialize(), reversed.Serialize());
}

TEST_F(SnapshotTest, ReadAndRebuildIsBitIdentical) {
  const std::string image = MakeWriter().Serialize();
  const std::string path = WriteTempFile("rebuild.surv", image);

  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());

  // Rebuild a writer purely from what the reader exposes.
  SnapshotWriter rebuilt;
  rebuilt.set_label(std::string(snapshot.label()));
  for (const Snapshot::BlockView& block : snapshot.blocks()) {
    for (uint32_t i = 0; i < block.record_count; ++i) {
      const Snapshot::RecordView record =
          Snapshot::ReadRecord(block.records, i);
      SnapshotOpinion opinion;
      opinion.entity = std::string(snapshot.EntityName(record.entity_index));
      opinion.type = std::string(snapshot.TypeName(block.type_index));
      opinion.property =
          std::string(snapshot.PropertyName(block.property_index));
      opinion.posterior = record.posterior;
      opinion.polarity = record.polarity;
      opinion.degraded = block.degraded;
      ASSERT_TRUE(rebuilt.Add(opinion).ok());
    }
  }
  for (uint32_t e = 0; e < snapshot.num_entities(); ++e) {
    for (uint32_t p = 0; p < snapshot.num_properties(); ++p) {
      std::vector<StatementRef> refs = snapshot.Provenance(e, p);
      if (refs.empty()) continue;
      rebuilt.AddProvenance(
          std::string(snapshot.EntityName(e)),
          std::string(snapshot.TypeName(snapshot.EntityType(e))),
          std::string(snapshot.PropertyName(p)), std::move(refs));
    }
  }
  EXPECT_EQ(rebuilt.Serialize(), image);
}

TEST_F(SnapshotTest, EmptySnapshotRoundTrips) {
  SnapshotWriter writer;
  writer.set_label("empty");
  const std::string path = WriteTempFile("empty.surv", writer.Serialize());
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  EXPECT_EQ(snapshot.num_opinions(), 0u);
  EXPECT_TRUE(snapshot.blocks().empty());
}

TEST_F(SnapshotTest, RejectsBadMagic) {
  std::string image = MakeWriter().Serialize();
  image[0] = 'X';
  Snapshot snapshot;
  const Status status =
      snapshot.Open(WriteTempFile("badmagic.surv", image));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, VersionMismatchNamesTheVersion) {
  std::string image = MakeWriter().Serialize();
  // The format version is the little-endian u32 right after the magic.
  image[8] = 99;
  Snapshot snapshot;
  const Status status =
      snapshot.Open(WriteTempFile("badversion.surv", image));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("99"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotTest, CorruptedPayloadFailsItsCrcCheck) {
  std::string image = MakeWriter().Serialize();
  // Flip one bit inside a section payload (an entity-name byte, which is
  // covered by its section's CRC).
  const size_t pos = image.find("kitten");
  ASSERT_NE(pos, std::string::npos);
  image[pos] ^= 0x20;
  Snapshot snapshot;
  const Status status = snapshot.Open(WriteTempFile("corrupt.surv", image));
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("CRC"), std::string::npos)
      << status.ToString();
}

TEST_F(SnapshotTest, TruncatedFileIsRejected) {
  const std::string image = MakeWriter().Serialize();
  for (const size_t keep : {image.size() - 5, image.size() / 2, size_t{16}}) {
    Snapshot snapshot;
    const Status status = snapshot.Open(
        WriteTempFile("truncated.surv", image.substr(0, keep)));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "kept " << keep << " bytes: " << status.ToString();
  }
}

TEST_F(SnapshotTest, FailedOpenKeepsThePreviousSnapshot) {
  const std::string good_path =
      WriteTempFile("keep-good.surv", MakeWriter().Serialize());
  std::string corrupt = MakeWriter().Serialize();
  corrupt[corrupt.size() - 1] ^= 0xff;

  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(good_path).ok());
  ASSERT_FALSE(
      snapshot.Open(WriteTempFile("keep-bad.surv", corrupt.substr(0, 40)))
          .ok());
  // The earlier, valid state is still served.
  EXPECT_EQ(snapshot.num_opinions(), 3u);
  EXPECT_EQ(snapshot.label(), "test snapshot");
}

TEST_F(SnapshotTest, WriteToFilePublishesAtomically) {
  const std::string dir = testing::TempDir() + "/snapshot_atomic";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/atomic.surv";
  ASSERT_TRUE(MakeWriter().WriteToFile(path).ok());

  // Overwriting an existing snapshot replaces it whole — a reader racing
  // the write sees old bytes or new bytes, never a torn hybrid — and the
  // temp file never lingers next to the published one.
  SnapshotWriter second;
  second.set_label("second version");
  ASSERT_TRUE(second
                  .Add(MakeOpinion("koala", "animal", "cute", 0.91,
                                   Polarity::kPositive))
                  .ok());
  ASSERT_TRUE(second.WriteToFile(path).ok());
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  Snapshot snapshot;
  ASSERT_TRUE(snapshot.Open(path).ok());
  EXPECT_EQ(snapshot.label(), "second version");
}

TEST_F(SnapshotTest, WriteToFileSurfacesWriteFailures) {
  // The old implementation streamed into an ofstream without checking the
  // stream state — a full disk produced a silent torn file. Now the
  // failure is loud and the target path is never created.
  const std::string path =
      testing::TempDir() + "/no-such-snapshot-dir/out.surv";
  EXPECT_FALSE(MakeWriter().WriteToFile(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(SnapshotTest, SnapshotReadFaultPointFiresAsInternal) {
  const std::string path =
      WriteTempFile("faulted.surv", MakeWriter().Serialize());
  ScopedFaults faults("snapshot_read:1");
  Snapshot snapshot;
  const Status status = snapshot.Open(path);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace serving
}  // namespace surveyor
