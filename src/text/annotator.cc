#include "text/annotator.h"

#include "text/tokenizer.h"
#include "util/logging.h"
#include "util/profile_tag.h"

namespace surveyor {

TextAnnotator::TextAnnotator(const KnowledgeBase* kb, const Lexicon* lexicon,
                             EntityTaggerOptions tagger_options)
    : kb_(kb), lexicon_(lexicon), tagger_(kb, tagger_options) {
  SURVEYOR_CHECK(kb_ != nullptr);
  SURVEYOR_CHECK(lexicon_ != nullptr);
}

AnnotatedDocument TextAnnotator::AnnotateDocument(int64_t doc_id,
                                                  std::string_view text) const {
  // Innermost tags (split, tokenize, match, parse, coref) win; this one
  // keeps the per-sentence bookkeeping out of "untagged".
  SURVEYOR_PROFILE_SCOPE("annotate");
  AnnotatedDocument doc;
  doc.doc_id = doc_id;
  for (const std::string& sentence : SplitSentences(text)) {
    doc.sentences.push_back(AnnotateSentence(sentence));
  }
  return doc;
}

AnnotatedSentence TextAnnotator::AnnotateSentence(
    std::string_view sentence) const {
  AnnotatedSentence result;
  result.raw_text = std::string(sentence);
  const std::vector<Token> tokens = Tokenize(sentence, *lexicon_);
  result.units = tagger_.Tag(tokens);
  if (result.units.empty()) return result;
  auto tree = parser_.Parse(result.units);
  if (!tree.ok()) return result;  // outside the grammar; skipped downstream
  result.tree = *std::move(tree);
  result.parsed = true;
  ResolveCoreference(result);
  return result;
}

void TextAnnotator::ResolveCoreference(AnnotatedSentence& sentence) const {
  SURVEYOR_PROFILE_SCOPE("coref");
  const DependencyTree& tree = sentence.tree;
  for (size_t i = 0; i < sentence.units.size(); ++i) {
    ParseUnit& unit = sentence.units[i];
    if (unit.IsEntityMention()) continue;
    if (unit.pos != Pos::kNoun && unit.pos != Pos::kUnknown) continue;
    const int idx = static_cast<int>(i);
    // Predicate nominal: has a copula child and an entity-mention subject.
    if (!tree.HasChildWithRel(idx, DepRel::kCop)) continue;
    if (tree.CountChildrenWithRel(idx, DepRel::kNsubj) != 1) continue;
    const ParseUnit& subj =
        sentence.units[tree.FirstChildWithRel(idx, DepRel::kNsubj)];
    if (!subj.IsEntityMention()) continue;
    const Entity& entity = kb_->entity(subj.entity);
    // The nominal corefers with the subject when it is the subject's type
    // noun ("animals" for an animal, "city" for a city).
    const std::string singular = lexicon_->Singularize(unit.text);
    if (singular == kb_->TypeName(entity.most_notable_type)) {
      unit.coref_entity = subj.entity;
    }
  }
}

}  // namespace surveyor
