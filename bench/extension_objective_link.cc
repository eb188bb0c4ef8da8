// The paper's stated future work (Section 9): connect subjective
// properties to objective ones — e.g. "find a lower bound on the
// population count of a city starting from which an average user would
// call that city big". This bench mines opinions from the synthetic
// corpus, fits a logistic link between the mined polarity and the
// objective attribute, and compares the recovered threshold against the
// latent one that generated the world.
#include <iostream>

#include "bench/bench_util.h"
#include "eval/objective_link.h"
#include "surveyor/api.h"
#include "util/string_util.h"

namespace surveyor {
namespace {

struct Scenario {
  const char* title;
  WorldConfig config;
  const char* property;
  const char* attribute;
  double latent_threshold;
  uint64_t corpus_seed;
};

void Run() {
  Scenario scenarios[] = {
      {"big cities vs population", MakeBigCityWorldConfig(461), "big",
       "population", 2.0e5, 901},
      {"wealthy countries vs GDP per capita", MakeWealthyCountryWorldConfig(),
       "wealthy", "gdp per capita", 2.0e4, 902},
      {"big lakes vs area", MakeBigLakeWorldConfig(), "big", "area", 30.0,
       903},
      {"high mountains vs relative height", MakeHighMountainWorldConfig(),
       "high", "relative height", 700.0, 904},
  };

  bench::PrintHeader(
      "Extension (paper Sec. 9): linking subjective to objective properties");
  TextTable table({"scenario", "latent threshold", "recovered threshold",
                   "slope", "fit agreement", "entities"});
  for (Scenario& scenario : scenarios) {
    GeneratorOptions generator_options;
    generator_options.author_population = 15000;
    generator_options.seed = scenario.corpus_seed;
    generator_options.exposure_exponent = 0.8;
    World world = World::Generate(scenario.config).value();
    const std::vector<RawDocument> corpus =
        CorpusGenerator(&world, generator_options).Generate();

    SurveyorConfig config;
    config.min_statements = 100;
    auto result = Mine(config, corpus, world.kb(), world.lexicon());
    SURVEYOR_CHECK(result.ok());
    const PropertyTypeResult* pair = result->Find(0, scenario.property);
    SURVEYOR_CHECK(pair != nullptr);

    auto link = LinkObjectiveProperty(world.kb(), *pair, scenario.attribute);
    SURVEYOR_CHECK(link.ok()) << link.status();
    table.AddRow({scenario.title, TextTable::Num(scenario.latent_threshold, 0),
                  TextTable::Num(link->threshold, 0),
                  TextTable::Num(link->slope, 2),
                  TextTable::Num(link->agreement, 3),
                  StrFormat("%d", link->num_entities)});
  }
  table.Print(std::cout);
  std::cout << "\nShape check: the recovered thresholds land within a small\n"
               "factor of the latent ones that generated the opinions —\n"
               "mined subjective properties can be grounded in objective\n"
               "attributes, as the paper proposes.\n";
}

}  // namespace
}  // namespace surveyor

int main() {
  surveyor::Run();
  return 0;
}
