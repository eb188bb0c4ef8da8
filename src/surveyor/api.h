#ifndef SURVEYOR_SURVEYOR_API_H_
#define SURVEYOR_SURVEYOR_API_H_

#include <vector>

#include "kb/knowledge_base.h"
#include "surveyor/pipeline.h"
#include "text/document.h"
#include "text/document_source.h"
#include "text/lexicon.h"
#include "util/statusor.h"

namespace surveyor {

/// The public face of the mining side of Surveyor: one call from raw
/// documents to mined opinions (Algorithm 1 end to end). `Mine` validates
/// the configuration, runs extraction + grouping + per-pair EM + inference
/// and returns the full result — the report, the provenance and the
/// opinions that `serving::SnapshotWriter` freezes into the artifact
/// `surveyor_cli serve` answers queries from.
///
/// The two Mine overloads are the only way documents become evidence: the
/// in-memory overload streams its corpus through a VectorDocumentSource,
/// so both run the same extraction loop and, for the same documents in
/// the same order, return identical results at any thread count.
/// SurveyorPipeline::RunFromEvidence is the one entry below this facade,
/// for callers that already hold grouped evidence.
///
/// `kb` and `lexicon` must outlive the call. `source` must be
/// thread-safe; it is drained until exhaustion without ever materializing
/// the corpus in memory.
StatusOr<PipelineResult> Mine(const SurveyorConfig& config,
                              DocumentSource& source, const KnowledgeBase& kb,
                              const Lexicon& lexicon);

/// In-memory corpus overload for tests and laptop-scale runs.
StatusOr<PipelineResult> Mine(const SurveyorConfig& config,
                              const std::vector<RawDocument>& corpus,
                              const KnowledgeBase& kb, const Lexicon& lexicon);

}  // namespace surveyor

#endif  // SURVEYOR_SURVEYOR_API_H_
