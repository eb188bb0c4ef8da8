// Differential test of OpinionIndex: every answer the in-place index gives
// over a seeded snapshot must equal the answer a plain reference model
// computes from the opinion list the snapshot was written from.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serving/opinion_index.h"
#include "serving/snapshot.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace surveyor {
namespace serving {
namespace {

/// The opinions, provenance and name tables of one generated snapshot,
/// with the lookup rules spelled out directly: names resolve
/// case-insensitively, and among names equal up to case the one with the
/// highest table index (the last in byte order) wins.
struct Reference {
  std::vector<SnapshotOpinion> opinions;
  std::map<std::pair<std::string, std::string>, std::vector<StatementRef>>
      provenance;
  std::map<std::string, std::string> entity_type;
  std::set<std::string> types;
  std::set<std::string> properties;

  static const std::string* Resolve(const std::set<std::string>& table,
                                    const std::string& name) {
    const std::string* found = nullptr;
    for (const std::string& candidate : table) {  // ascending index
      if (ToLower(candidate) == ToLower(name)) found = &candidate;
    }
    return found;
  }

  std::set<std::string> EntityNames() const {
    std::set<std::string> names;
    for (const auto& [name, type] : entity_type) names.insert(name);
    return names;
  }

  bool Degraded(const std::string& type, const std::string& property) const {
    for (const SnapshotOpinion& o : opinions) {
      if (o.type == type && o.property == property && o.degraded) return true;
    }
    return false;
  }

  ServedOpinion Serve(const SnapshotOpinion& o) const {
    ServedOpinion served;
    served.entity = o.entity;
    served.type = o.type;
    served.property = o.property;
    served.posterior = o.posterior;
    served.polarity = o.polarity;
    served.degraded = Degraded(o.type, o.property);
    auto prov = provenance.find({o.entity, o.property});
    if (prov != provenance.end()) served.provenance = prov->second;
    return served;
  }

  StatusOr<ServedOpinion> Lookup(const std::string& entity,
                                 const std::string& property) const {
    const std::set<std::string> names = EntityNames();
    const std::string* e = Resolve(names, entity);
    if (e == nullptr) return Status::NotFound("unknown entity");
    const std::string* p = Resolve(properties, property);
    for (const SnapshotOpinion& o : opinions) {
      if (p != nullptr && o.entity == *e && o.property == *p) return Serve(o);
    }
    return Status::NotFound("no opinion");
  }

  std::vector<ServedOpinion> QueryType(const std::string& type,
                                       const std::string& property,
                                       size_t limit) const {
    std::vector<ServedOpinion> out;
    const std::string* t = Resolve(types, type);
    const std::string* p = Resolve(properties, property);
    if (t == nullptr || p == nullptr) return out;
    for (const SnapshotOpinion& o : opinions) {
      if (o.type == *t && o.property == *p &&
          o.polarity == Polarity::kPositive) {
        out.push_back(Serve(o));
      }
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.posterior != b.posterior) return a.posterior > b.posterior;
      return a.entity < b.entity;
    });
    if (limit > 0 && out.size() > limit) out.resize(limit);
    return out;
  }

  std::vector<ServedOpinion> PropertiesOf(const std::string& entity) const {
    std::vector<ServedOpinion> out;
    const std::set<std::string> names = EntityNames();
    const std::string* e = Resolve(names, entity);
    if (e == nullptr) return out;
    for (const SnapshotOpinion& o : opinions) {
      if (o.entity == *e) out.push_back(Serve(o));
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      if (a.polarity != b.polarity) return a.polarity == Polarity::kPositive;
      const double da = std::abs(a.posterior - 0.5);
      const double db = std::abs(b.posterior - 0.5);
      if (da != db) return da > db;
      return a.property < b.property;
    });
    return out;
  }

  std::vector<std::string> PrefixScan(const std::string& prefix,
                                      size_t limit) const {
    const std::set<std::string> table = EntityNames();
    const std::vector<std::string> names(table.begin(), table.end());
    std::vector<std::pair<std::string, size_t>> matches;
    size_t index = 0;
    for (const std::string& name : names) {
      const std::string lower = ToLower(name);
      if (lower.compare(0, prefix.size(), ToLower(prefix)) == 0) {
        matches.emplace_back(lower, index);
      }
      ++index;
    }
    std::sort(matches.begin(), matches.end());
    std::vector<std::string> out;
    for (const auto& [lower, i] : matches) {
      if (limit > 0 && out.size() >= limit) break;
      out.push_back(names[i]);
    }
    return out;
  }
};

/// A random name over a small mixed-case alphabet, so names equal up to
/// case (and shared prefixes) are common.
std::string RandomName(Rng& rng, const char* alphabet, size_t alphabet_size) {
  std::string name;
  const size_t length = 1 + rng.UniformInt(4);
  for (size_t i = 0; i < length; ++i) {
    name.push_back(alphabet[rng.UniformInt(alphabet_size)]);
  }
  return name;
}

/// Generates a reference data set and writes it through SnapshotWriter.
Reference Generate(uint64_t seed, SnapshotWriter* writer) {
  Rng rng(seed);
  Reference ref;
  // "City"/"city" and "Big"/"big" collide under lowercasing.
  const std::vector<std::string> types = {"animal", "City", "city"};
  const std::vector<std::string> properties = {"cute", "Big", "big", "safe",
                                               "Old"};
  static const char kAlphabet[] = "aAbBc";
  for (int n = 0; n < 60; ++n) {
    const std::string name = RandomName(rng, kAlphabet, 5);
    if (ref.entity_type.count(name) > 0) continue;
    const std::string& type = types[rng.UniformInt(types.size())];
    // Some entities carry provenance only and no opinion at all.
    const bool opinions = !rng.Bernoulli(0.1);
    bool registered = false;
    for (const std::string& property : properties) {
      if (!opinions || !rng.Bernoulli(0.6)) continue;
      SnapshotOpinion o;
      o.entity = name;
      o.type = type;
      o.property = property;
      o.posterior = rng.Uniform(0.01, 0.99);
      if (std::abs(o.posterior - 0.5) < 0.01) o.posterior = 0.75;
      o.polarity =
          o.posterior > 0.5 ? Polarity::kPositive : Polarity::kNegative;
      o.degraded = rng.Bernoulli(0.1);
      EXPECT_TRUE(writer->Add(o).ok());
      ref.opinions.push_back(o);
      ref.properties.insert(property);
      registered = true;
    }
    // Provenance on some pairs, including pairs without an opinion (the
    // index must never attach those to an answer).
    for (const std::string& property : properties) {
      if (!rng.Bernoulli(0.25)) continue;
      std::vector<StatementRef> refs(1 + rng.UniformInt(3));
      for (StatementRef& r : refs) {
        r.doc_id = static_cast<int64_t>(rng.UniformInt(100000));
        r.sentence_index = static_cast<int>(rng.UniformInt(9));
        r.positive = rng.Bernoulli(0.5);
      }
      writer->AddProvenance(name, type, property, refs);
      ref.provenance[{name, property}] = refs;
      ref.properties.insert(property);
      registered = true;
    }
    // The writer knows an entity only through an opinion or provenance.
    if (registered) {
      ref.entity_type[name] = type;
      ref.types.insert(type);
    }
  }
  // One block whose posteriors take three values, so type scans rank it
  // mostly by the entity-name tie-break.
  static const double kTiedPosteriors[] = {0.875, 0.75, 0.625};
  for (int n = 0; n < 40; ++n) {
    const std::string name = "t" + RandomName(rng, kAlphabet, 5);
    if (ref.entity_type.count(name) > 0) continue;
    SnapshotOpinion o;
    o.entity = name;
    o.type = "tied";
    o.property = "cute";
    o.posterior = kTiedPosteriors[rng.UniformInt(3)];
    o.polarity = Polarity::kPositive;
    EXPECT_TRUE(writer->Add(o).ok());
    ref.opinions.push_back(o);
    ref.properties.insert(o.property);
    ref.entity_type[name] = o.type;
    ref.types.insert(o.type);
  }
  return ref;
}

void ExpectSame(const ServedOpinion& got, const ServedOpinion& want,
                const std::string& context) {
  EXPECT_EQ(got.entity, want.entity) << context;
  EXPECT_EQ(got.type, want.type) << context;
  EXPECT_EQ(got.property, want.property) << context;
  EXPECT_EQ(got.posterior, want.posterior) << context;
  EXPECT_EQ(got.polarity, want.polarity) << context;
  EXPECT_EQ(got.degraded, want.degraded) << context;
  ASSERT_EQ(got.provenance.size(), want.provenance.size()) << context;
  for (size_t i = 0; i < got.provenance.size(); ++i) {
    EXPECT_EQ(got.provenance[i].doc_id, want.provenance[i].doc_id) << context;
    EXPECT_EQ(got.provenance[i].sentence_index,
              want.provenance[i].sentence_index)
        << context;
    EXPECT_EQ(got.provenance[i].positive, want.provenance[i].positive)
        << context;
  }
}

void ExpectSameLookup(const StatusOr<ServedOpinion>& got,
                      const StatusOr<ServedOpinion>& want,
                      const std::string& context) {
  ASSERT_EQ(got.ok(), want.ok()) << context << ": " << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << context;
    // "unknown entity ..." versus "no opinion for ...".
    EXPECT_EQ(got.status().message().rfind(want.status().message(), 0), 0u)
        << context << ": " << got.status().ToString();
    return;
  }
  ExpectSame(*got, *want, context);
}

std::string Upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

class OpinionIndexDifferentialTest : public testing::TestWithParam<uint64_t> {
 protected:
  ScopedFaults disarm_{""};
};

TEST_P(OpinionIndexDifferentialTest, EveryAnswerMatchesTheReference) {
  SnapshotWriter writer;
  const Reference ref = Generate(GetParam(), &writer);
  const std::string path = testing::TempDir() + "/differential-" +
                           std::to_string(GetParam()) + ".surv";
  ASSERT_TRUE(writer.WriteToFile(path).ok());
  OpinionIndex index;
  ASSERT_TRUE(index.Load(path).ok());

  // Every entity in three casings plus misses, against every property in
  // two casings plus a miss.
  std::vector<std::string> entities = {"zzz", "", "aaaaaaa"};
  for (const auto& [name, type] : ref.entity_type) {
    entities.push_back(name);
    entities.push_back(ToLower(name));
    entities.push_back(Upper(name));
  }
  std::vector<std::string> properties = {"nosuch", ""};
  for (const std::string& p : ref.properties) {
    properties.push_back(p);
    properties.push_back(Upper(p));
  }
  size_t hits = 0, misses = 0;
  std::vector<std::pair<std::string, std::string>> batch;
  std::vector<StatusOr<ServedOpinion>> batch_want;
  for (const std::string& e : entities) {
    for (const std::string& p : properties) {
      const StatusOr<ServedOpinion> want = ref.Lookup(e, p);
      (want.ok() ? hits : misses) += 1;
      ExpectSameLookup(index.Lookup(e, p), want, "Lookup " + e + "/" + p);
      batch.emplace_back(e, p);
      batch_want.push_back(want);
    }
  }
  EXPECT_GT(hits, 100u);
  EXPECT_GT(misses, 100u);

  const std::vector<StatusOr<ServedOpinion>> batch_got =
      index.BatchLookup(batch);
  ASSERT_EQ(batch_got.size(), batch_want.size());
  for (size_t i = 0; i < batch_got.size(); ++i) {
    ExpectSameLookup(batch_got[i], batch_want[i],
                     "BatchLookup " + batch[i].first + "/" + batch[i].second);
  }

  for (const std::string& e : entities) {
    const std::vector<ServedOpinion> got = index.PropertiesOf(e);
    const std::vector<ServedOpinion> want = ref.PropertiesOf(e);
    ASSERT_EQ(got.size(), want.size()) << "PropertiesOf " << e;
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSame(got[i], want[i], "PropertiesOf " + e);
    }
  }

  // The tied block really ties: most of its entries share a posterior.
  EXPECT_GE(ref.QueryType("tied", "cute", 0).size(), 20u);
  std::vector<std::string> types = {"nosuch", "ANIMAL", "CITY"};
  types.insert(types.end(), ref.types.begin(), ref.types.end());
  for (const std::string& t : types) {
    for (const std::string& p : properties) {
      for (const size_t limit : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
        const std::vector<ServedOpinion> got = index.QueryType(t, p, limit);
        const std::vector<ServedOpinion> want = ref.QueryType(t, p, limit);
        ASSERT_EQ(got.size(), want.size()) << "QueryType " << t << "/" << p;
        for (size_t i = 0; i < got.size(); ++i) {
          ExpectSame(got[i], want[i], "QueryType " + t + "/" + p);
        }
      }
    }
  }

  for (const std::string prefix :
       {"", "a", "A", "ab", "AB", "bA", "c", "cc", "abab", "z"}) {
    for (const size_t limit : {size_t{0}, size_t{1}, size_t{5}}) {
      EXPECT_EQ(index.PrefixScan(prefix, limit), ref.PrefixScan(prefix, limit))
          << "PrefixScan " << prefix << " limit " << limit;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OpinionIndexDifferentialTest,
                         testing::Values(uint64_t{1}, uint64_t{2}, uint64_t{3},
                                         uint64_t{4}));

}  // namespace
}  // namespace serving
}  // namespace surveyor
