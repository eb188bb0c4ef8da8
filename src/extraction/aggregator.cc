#include "extraction/aggregator.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "util/logging.h"
#include "util/profile_tag.h"

namespace surveyor {

namespace {

/// The total order provenance samples are ranked by: corpus position
/// first, polarity only to break ties inside one sentence.
bool RefLess(const StatementRef& a, const StatementRef& b) {
  return std::tie(a.doc_id, a.sentence_index, a.positive) <
         std::tie(b.doc_id, b.sentence_index, b.positive);
}

}  // namespace

EvidenceAggregator::EvidenceAggregator(int max_provenance_samples)
    : max_provenance_samples_(max_provenance_samples) {
  SURVEYOR_CHECK_GE(max_provenance_samples, 0);
}

void EvidenceAggregator::Add(const EvidenceStatement& statement) {
  SURVEYOR_CHECK_NE(statement.entity, kInvalidEntity);
  EvidenceCounts& counts = pairs_[statement.entity][statement.property];
  if (statement.positive) {
    ++counts.positive;
  } else {
    ++counts.negative;
  }
  ++total_statements_;
  if (max_provenance_samples_ > 0) {
    KeepSmallest(StatementRef{statement.doc_id, statement.sentence_index,
                              statement.positive},
                 &provenance_[statement.entity][statement.property]);
  }
}

void EvidenceAggregator::KeepSmallest(const StatementRef& ref,
                                      std::vector<StatementRef>* refs) const {
  const size_t cap = static_cast<size_t>(max_provenance_samples_);
  if (refs->size() >= cap && !RefLess(ref, refs->back())) return;
  refs->insert(std::upper_bound(refs->begin(), refs->end(), ref, RefLess),
               ref);
  if (refs->size() > cap) refs->pop_back();
}

void EvidenceAggregator::AddAll(
    const std::vector<EvidenceStatement>& statements) {
  SURVEYOR_PROFILE_SCOPE("aggregate");
  for (const EvidenceStatement& s : statements) Add(s);
}

void EvidenceAggregator::Merge(const EvidenceAggregator& other) {
  for (const auto& [entity, properties] : other.pairs_) {
    auto& mine = pairs_[entity];
    for (const auto& [property, counts] : properties) {
      EvidenceCounts& c = mine[property];
      c.positive += counts.positive;
      c.negative += counts.negative;
    }
  }
  if (max_provenance_samples_ > 0) {
    for (const auto& [entity, properties] : other.provenance_) {
      auto& mine = provenance_[entity];
      for (const auto& [property, refs] : properties) {
        std::vector<StatementRef>& target = mine[property];
        for (const StatementRef& ref : refs) KeepSmallest(ref, &target);
      }
    }
  }
  total_statements_ += other.total_statements_;
}

size_t EvidenceAggregator::num_pairs() const {
  size_t total = 0;
  for (const auto& [entity, properties] : pairs_) total += properties.size();
  return total;
}

EvidenceCounts EvidenceAggregator::CountsFor(EntityId entity,
                                             const std::string& property) const {
  auto it = pairs_.find(entity);
  if (it == pairs_.end()) return {};
  auto pit = it->second.find(property);
  if (pit == it->second.end()) return {};
  return pit->second;
}

std::vector<PropertyTypeEvidence> EvidenceAggregator::GroupByType(
    const KnowledgeBase& kb, int64_t min_statements) const {
  // (type, property) -> entity -> counts. Ordered map for deterministic
  // output across runs.
  std::map<std::pair<TypeId, std::string>,
           std::unordered_map<EntityId, EvidenceCounts>>
      groups;
  for (const auto& [entity, properties] : pairs_) {
    const TypeId type = kb.entity(entity).most_notable_type;
    for (const auto& [property, counts] : properties) {
      groups[{type, property}][entity] = counts;
    }
  }
  std::vector<PropertyTypeEvidence> result;
  for (const auto& [key, entity_counts] : groups) {
    int64_t total = 0;
    for (const auto& [entity, counts] : entity_counts) {
      total += counts.total();
    }
    if (total < min_statements) continue;
    PropertyTypeEvidence evidence;
    evidence.type = key.first;
    evidence.property = key.second;
    evidence.total_statements = total;
    const std::vector<EntityId>& members = kb.EntitiesOfType(key.first);
    evidence.entities = members;
    evidence.counts.resize(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      auto it = entity_counts.find(members[i]);
      if (it != entity_counts.end()) evidence.counts[i] = it->second;
    }
    result.push_back(std::move(evidence));
  }
  return result;
}

std::vector<StatementRef> EvidenceAggregator::SupportingStatements(
    EntityId entity, const std::string& property) const {
  auto it = provenance_.find(entity);
  if (it == provenance_.end()) return {};
  auto pit = it->second.find(property);
  if (pit == it->second.end()) return {};
  return pit->second;
}

std::vector<std::tuple<EntityId, std::string, std::vector<StatementRef>>>
EvidenceAggregator::AllSupportingStatements() const {
  std::vector<std::tuple<EntityId, std::string, std::vector<StatementRef>>>
      result;
  for (const auto& [entity, properties] : provenance_) {
    for (const auto& [property, refs] : properties) {
      result.emplace_back(entity, property, refs);
    }
  }
  return result;
}

std::vector<int64_t> EvidenceAggregator::StatementsPerEntity(
    const KnowledgeBase& kb) const {
  std::vector<int64_t> totals(kb.num_entities(), 0);
  for (const auto& [entity, properties] : pairs_) {
    int64_t total = 0;
    for (const auto& [property, counts] : properties) total += counts.total();
    totals[entity] = total;
  }
  return totals;
}

}  // namespace surveyor
