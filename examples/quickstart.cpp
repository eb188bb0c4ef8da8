// Quickstart: mine dominant opinions end to end in ~40 lines.
//
// 1. Build (or load) a knowledge base and lexicon — here we use the tiny
//    built-in demo world, which also simulates a small Web corpus.
// 2. Run the Surveyor pipeline over raw documents.
// 3. Read out <entity, property, polarity, probability> opinions.
#include <iostream>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "surveyor/api.h"

int main() {
  using namespace surveyor;

  // A small world: animals (cute/dangerous) and cities (big), plus a
  // simulated Web corpus written by 8000 authors.
  World world = World::Generate(MakeTinyWorldConfig()).value();
  GeneratorOptions corpus_options;
  corpus_options.author_population = 8000;
  std::vector<RawDocument> corpus =
      CorpusGenerator(&world, corpus_options).Generate();
  std::cout << "corpus: " << corpus.size() << " documents\n";

  // Configure and run the pipeline (Algorithm 1 of the paper).
  SurveyorConfig config;
  config.min_statements = 50;  // the rho threshold
  auto result = Mine(config, corpus, world.kb(), world.lexicon());
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.status() << "\n";
    return 1;
  }

  std::cout << "extracted " << result->stats.num_statements
            << " statements; kept "
            << result->stats.num_kept_property_type_pairs
            << " property-type pairs; emitted " << result->stats.num_opinions
            << " opinions\n\n";

  // Print the mined opinions for the seeded entities.
  for (const PairOpinion& opinion : result->Opinions()) {
    const Entity& entity = world.kb().entity(opinion.entity);
    if (entity.popularity < 0.05) continue;  // keep the output short
    std::cout << entity.canonical_name << " is"
              << (opinion.polarity == Polarity::kPositive ? " " : " NOT ")
              << opinion.property << "  (Pr=" << opinion.probability << ")\n";
  }
  return 0;
}
