#include "surveyor/api.h"

namespace surveyor {

StatusOr<PipelineResult> Mine(const SurveyorConfig& config,
                              DocumentSource& source, const KnowledgeBase& kb,
                              const Lexicon& lexicon) {
  const SurveyorPipeline pipeline(&kb, &lexicon, config);
  return pipeline.Instrumented(
      [&](obs::MetricRegistry& registry, obs::RunReport* report) {
        return pipeline.MineDocuments(source, registry, report);
      });
}

StatusOr<PipelineResult> Mine(const SurveyorConfig& config,
                              const std::vector<RawDocument>& corpus,
                              const KnowledgeBase& kb, const Lexicon& lexicon) {
  VectorDocumentSource source(&corpus);
  return Mine(config, source, kb, lexicon);
}

}  // namespace surveyor
