// Region-specific opinion mining (paper Section 2): "Chinese users might
// have different ideas than American users about what constitutes a big
// city. Surveyor can produce region-specific results if the input is
// restricted to Web sites with specific domain extensions."
//
// Two simulated author populations disagree about which sports are
// "exciting"; restricting the pipeline input by document domain recovers
// each region's dominant opinion.
#include <iostream>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "surveyor/api.h"
#include "util/table.h"

int main() {
  using namespace surveyor;

  // One type, one strongly contested property.
  WorldConfig config;
  config.seed = 42;
  TypeSpec sports;
  sports.name = "sport";
  sports.num_entities = 40;
  for (const char* name : {"soccer", "chess", "curling", "rugby", "golf",
                           "boxing", "cricket", "darts"}) {
    EntitySeed seed;
    seed.name = name;
    sports.seeds.push_back(seed);
  }
  PropertySpec exciting;
  exciting.adjective = "exciting";
  exciting.prevalence = 0.4;
  exciting.agreement = 0.7;  // mild consensus: regions can flip it
  // Both camps are vocal (fans and detractors argue), so statement counts
  // track the regional opinion split directly.
  exciting.express_positive = 0.030;
  exciting.express_negative = 0.020;
  sports.properties = {exciting};
  config.types.push_back(std::move(sports));
  World world = World::Generate(config).value();

  // Two regions with opposite dispositions toward "exciting".
  GeneratorOptions options;
  options.author_population = 6000;
  options.regions = {
      RegionSpec{"east", 0.5, +1.6},
      RegionSpec{"west", 0.5, -1.6},
  };
  const std::vector<RawDocument> corpus =
      CorpusGenerator(&world, options).Generate();

  SurveyorConfig pipeline_config;
  pipeline_config.min_statements = 30;
  const TypeId sport = world.kb().TypeByName("sport").value();

  // Mine each region separately by restricting the input documents, plus
  // the blended whole-Web view.
  TextTable table({"sport", "global", "east", "west"});
  std::vector<std::vector<Polarity>> per_domain;
  for (const std::string& domain : {std::string(), std::string("east"),
                                    std::string("west")}) {
    auto result = Mine(pipeline_config, FilterByDomain(corpus, domain),
                       world.kb(), world.lexicon());
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    const PropertyTypeResult* pair = result->Find(sport, "exciting");
    if (pair == nullptr) {
      std::cerr << "no evidence for (sport, exciting) in domain '" << domain
                << "'\n";
      return 1;
    }
    per_domain.push_back(pair->polarity);
  }

  int disagreements = 0;
  for (size_t i = 0; i < 8; ++i) {  // the seeded, well-known sports
    const EntityId entity = world.kb().EntitiesOfType(sport)[i];
    table.AddRow({world.kb().entity(entity).canonical_name,
                  std::string(PolarityName(per_domain[0][i])),
                  std::string(PolarityName(per_domain[1][i])),
                  std::string(PolarityName(per_domain[2][i]))});
    if (per_domain[1][i] != per_domain[2][i]) ++disagreements;
  }
  table.Print(std::cout);
  std::cout << "\nThe two regions disagree on " << disagreements
            << " of 8 well-known sports; the global view blends them.\n";
  return 0;
}
