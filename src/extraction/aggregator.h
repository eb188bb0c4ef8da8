#ifndef SURVEYOR_EXTRACTION_AGGREGATOR_H_
#define SURVEYOR_EXTRACTION_AGGREGATOR_H_

#include <cstdint>
#include <tuple>
#include <string>
#include <unordered_map>
#include <vector>

#include "extraction/evidence.h"
#include "kb/knowledge_base.h"
#include "model/opinion.h"
#include "util/statusor.h"

namespace surveyor {

/// Evidence for one property-type combination, ready for EM: counters for
/// *every* entity of the type, zeros included — the paper draws inferences
/// from unmentioned entities too.
struct PropertyTypeEvidence {
  TypeId type = kInvalidType;
  std::string property;
  /// Total statements extracted for this combination (positive+negative
  /// across all entities); the rho-threshold applies to this number.
  int64_t total_statements = 0;
  /// All entities of the type, in knowledge-base order.
  std::vector<EntityId> entities;
  /// Counters aligned with `entities`.
  std::vector<EvidenceCounts> counts;
};

/// A pointer back into the corpus: which document and sentence asserted a
/// statement. Supports the paper's goal of answering subjective queries
/// "with links to supporting content on the Web".
struct StatementRef {
  int64_t doc_id = 0;
  int sentence_index = 0;
  bool positive = true;
};

/// Accumulates evidence statements into per-(entity, property) counters and
/// groups them by entity type. Shards accumulate independently and are
/// merged, mirroring the paper's map-reduce structure. Optionally keeps a
/// bounded sample of supporting statement locations per pair: the N
/// smallest refs by (doc_id, sentence_index), so Add and Merge keep the
/// same refs, in ascending order, whatever the arrival order or the number
/// of shards.
class EvidenceAggregator {
 public:
  /// `max_provenance_samples` bounds how many supporting statement
  /// references are kept per (entity, property) pair — the ones earliest
  /// in (doc_id, sentence_index) order; 0 disables provenance tracking.
  explicit EvidenceAggregator(int max_provenance_samples = 0);

  /// Adds one statement to the counters.
  void Add(const EvidenceStatement& statement);

  /// Adds a batch.
  void AddAll(const std::vector<EvidenceStatement>& statements);

  /// Merges another aggregator's counters into this one.
  void Merge(const EvidenceAggregator& other);

  /// Number of distinct (entity, property) pairs with evidence.
  size_t num_pairs() const;

  /// Total number of statements accumulated.
  int64_t total_statements() const { return total_statements_; }

  /// Looks up the counters for one pair (zeros if absent).
  EvidenceCounts CountsFor(EntityId entity, const std::string& property) const;

  /// Groups evidence by (most-notable type, property), keeps combinations
  /// with at least `min_statements` (the paper's rho, 100 in deployment),
  /// and materializes full per-entity counter vectors.
  std::vector<PropertyTypeEvidence> GroupByType(const KnowledgeBase& kb,
                                                int64_t min_statements) const;

  /// Statement totals per entity (for the Fig. 9a percentile statistics);
  /// one value per knowledge-base entity, zeros included.
  std::vector<int64_t> StatementsPerEntity(const KnowledgeBase& kb) const;

  /// Supporting statement locations sampled for a pair, ascending by
  /// (doc_id, sentence_index) (empty when provenance tracking is disabled
  /// or the pair has no evidence).
  std::vector<StatementRef> SupportingStatements(
      EntityId entity, const std::string& property) const;

  /// All provenance entries as (entity, property, refs) tuples, in
  /// unspecified order; empty when tracking is disabled.
  std::vector<std::tuple<EntityId, std::string, std::vector<StatementRef>>>
  AllSupportingStatements() const;

 private:
  /// Inserts `ref` into the sorted `refs` if it ranks among the
  /// max_provenance_samples_ smallest.
  void KeepSmallest(const StatementRef& ref,
                    std::vector<StatementRef>* refs) const;

  /// property -> counts, nested under entity.
  std::unordered_map<EntityId,
                     std::unordered_map<std::string, EvidenceCounts>>
      pairs_;
  /// property -> sampled supporting statements, nested under entity.
  std::unordered_map<EntityId,
                     std::unordered_map<std::string, std::vector<StatementRef>>>
      provenance_;
  int max_provenance_samples_ = 0;
  int64_t total_statements_ = 0;
};

}  // namespace surveyor

#endif  // SURVEYOR_EXTRACTION_AGGREGATOR_H_
