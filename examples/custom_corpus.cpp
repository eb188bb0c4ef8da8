// Using Surveyor on YOUR OWN text and knowledge base — no simulator.
//
// Builds a knowledge base by hand (it could equally be loaded with
// LoadKnowledgeBaseFromFile), registers the vocabulary, feeds hand-written
// documents through the pipeline, and prints the mined opinions. Also
// shows knowledge-base serialization.
#include <iostream>
#include <sstream>

#include "kb/kb_io.h"
#include "surveyor/api.h"
#include "util/table.h"

int main() {
  using namespace surveyor;

  // --- 1. Knowledge base ----------------------------------------------------
  KnowledgeBase kb;
  const TypeId city = kb.AddType("city");
  const EntityId gotham = kb.AddEntity("gotham", city, 5.0).value();
  const EntityId rivertown = kb.AddEntity("rivertown", city, 2.0).value();
  const EntityId hillview = kb.AddEntity("hillview", city, 1.0).value();
  (void)rivertown;
  (void)hillview;
  if (!kb.AddAlias("the gotham metropolis", gotham).ok()) return 1;

  // --- 2. Lexicon: register the open-class vocabulary -----------------------
  Lexicon lexicon;
  lexicon.AddNounWithPlural("city");
  for (const char* adjective : {"big", "safe", "beautiful", "noisy"}) {
    lexicon.AddWord(adjective, Pos::kAdjective);
  }
  for (const char* noun : {"gotham", "rivertown", "hillview", "river",
                           "metropolis", "tourists"}) {
    lexicon.AddWord(noun, Pos::kNoun);
  }
  lexicon.AddWord("visited", Pos::kVerb);

  // --- 3. Documents (imagine these came from a crawl) -----------------------
  std::vector<RawDocument> corpus;
  int64_t next_doc_id = 1;
  for (const char* text : {
      "Gotham is a big city. I think that gotham is noisy.",
      "Gotham is big. We visited gotham. Gotham is not safe!",
      "I don't think that gotham is safe. Gotham is a noisy city.",
      "Rivertown is a beautiful city. Rivertown is not big.",
      "Rivertown is not a big city. rivertown is beautiful.",
      "I don't think that rivertown is never beautiful.",
      "Gotham is big and noisy. The gotham metropolis is not safe.",
      "Rivertown is safe. rivertown is a safe city. Hillview is big.",
      "Gotham is a big city. gotham is big. gotham is not safe."}) {
    RawDocument doc;
    doc.doc_id = next_doc_id++;
    doc.text = text;
    corpus.push_back(std::move(doc));
  }

  // --- 4. Run the pipeline ---------------------------------------------------
  SurveyorConfig config;
  config.min_statements = 2;  // tiny corpus: lower the rho threshold
  auto result = Mine(config, corpus, kb, lexicon);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }

  TextTable table({"entity", "property", "polarity", "probability"});
  for (const PairOpinion& opinion : result->Opinions()) {
    table.AddRow({kb.entity(opinion.entity).canonical_name, opinion.property,
                  std::string(PolarityName(opinion.polarity)),
                  TextTable::Num(opinion.probability, 3)});
  }
  table.Print(std::cout);

  // --- 5. Serialize the knowledge base --------------------------------------
  std::ostringstream serialized;
  if (SaveKnowledgeBase(kb, serialized).ok()) {
    std::cout << "\nknowledge base on disk would look like:\n"
              << serialized.str();
  }
  return 0;
}
