#include "mine_phase.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "corpus/generator.h"
#include "corpus/worlds.h"
#include "extraction/aggregator.h"
#include "extraction/extractor.h"
#include "model/em.h"
#include "model/user_model.h"
#include "serving/snapshot.h"
#include "surveyor/api.h"
#include "text/annotator.h"
#include "text/document_source.h"
#include "text/entity_tagger.h"
#include "text/parser.h"
#include "text/tokenizer.h"

namespace perfbench {
namespace {

using surveyor::Polarity;

/// Decorrelates the streams derived from one --seed.
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

surveyor::SurveyorConfig MiningConfig(const MineInputs& inputs, int threads) {
  surveyor::SurveyorConfig config;
  config.min_statements = inputs.min_statements;
  config.num_threads = threads;
  return config;
}

std::vector<OpinionRow> RowsOf(const surveyor::PipelineResult& result,
                               const surveyor::KnowledgeBase& kb) {
  std::vector<OpinionRow> rows;
  for (const surveyor::PairOpinion& opinion : result.Opinions()) {
    rows.push_back({kb.entity(opinion.entity).canonical_name,
                    kb.TypeName(opinion.type), opinion.property,
                    opinion.probability, opinion.polarity});
  }
  return rows;
}

/// Polarities only, never posterior bits: an EM that matches the
/// reference to 1e-12 keeps the fingerprint.
uint64_t Fingerprint(std::vector<OpinionRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const OpinionRow& a, const OpinionRow& b) {
              return std::tie(a.entity, a.property) <
                     std::tie(b.entity, b.property);
            });
  Fnv1a hash;
  for (const OpinionRow& row : rows) {
    hash.Add(row.entity);
    hash.Add(row.property);
    const char polarity = static_cast<char>(row.polarity);
    hash.Add(&polarity, 1);
  }
  return hash.value();
}

/// Coverage x precision F1 against the simulator's truth: the tally of
/// `surveyor_cli score`.
double ScoreF1(const std::vector<OpinionRow>& rows, const MineInputs& inputs) {
  const surveyor::KnowledgeBase& kb = inputs.world->kb();
  std::map<std::pair<std::string, std::string>, Polarity> mined;
  for (const OpinionRow& row : rows) {
    mined[{row.entity, row.property}] = row.polarity;
  }
  int64_t total = 0, solved = 0, correct = 0;
  for (const auto& [key, polarity] : inputs.truth) {
    ++total;
    auto it = mined.find({kb.entity(key.first).canonical_name, key.second});
    if (it == mined.end()) continue;
    ++solved;
    if (it->second == polarity) ++correct;
  }
  const double coverage =
      total > 0 ? static_cast<double>(solved) / static_cast<double>(total) : 0;
  const double precision =
      solved > 0 ? static_cast<double>(correct) / static_cast<double>(solved)
                 : 0;
  return coverage + precision > 0
             ? 2 * coverage * precision / (coverage + precision)
             : 0;
}

double NsPerDoc(double seconds, int64_t docs) {
  return docs > 0 ? seconds * 1e9 / static_cast<double>(docs) : 0.0;
}

}  // namespace

MineInputs SetupMine(uint64_t seed, bool tiny, const std::string& workdir) {
  MineInputs inputs;
  // The world's shape (types, entity counts, expression parameters) is
  // fixed, so every seed mines a corpus of about the same size and mix;
  // the seed draws the corpus and the world's latent opinions.
  const surveyor::WorldConfig shape =
      tiny ? surveyor::MakeTinyWorldConfig() : surveyor::MakeWebScaleWorldConfig(12, 23);
  surveyor::WorldConfig world_config = shape;
  world_config.seed = Mix(seed, 1);
  inputs.world.emplace(surveyor::World::Generate(world_config).value());
  surveyor::GeneratorOptions generator_options;
  generator_options.author_population = tiny ? 1500 : 5000;
  generator_options.seed = Mix(seed, 2);
  inputs.min_statements = tiny ? 20 : 100;
  const std::vector<surveyor::RawDocument> corpus =
      surveyor::CorpusGenerator(&*inputs.world, generator_options).Generate();
  inputs.num_documents = static_cast<int64_t>(corpus.size());
  inputs.corpus_path = workdir + "/corpus.tsv";
  const surveyor::Status saved =
      surveyor::SaveCorpusToFile(corpus, inputs.corpus_path);
  if (!saved.ok()) {
    throw std::runtime_error("cannot save corpus: " + saved.ToString());
  }
  for (const surveyor::PropertyGroundTruth& truth :
       inputs.world->ground_truths()) {
    for (size_t i = 0; i < truth.entities.size(); ++i) {
      inputs.truth[{truth.entities[i], truth.property}] = truth.dominant[i];
    }
  }
  return inputs;
}

MineBatch RunMineBatch(const MineInputs& inputs, int threads,
                       const std::string& snapshot_path, bool flip_one,
                       Report* report) {
  MineBatch batch;
  const surveyor::World& world = *inputs.world;
  const double cpu_start = ProcessCpuSeconds();
  const StealAwareTimer timer;
  const Clock::time_point start = Clock::now();

  surveyor::FileDocumentSource source(inputs.corpus_path);
  auto result = surveyor::Mine(MiningConfig(inputs, threads), source,
                               world.kb(), world.lexicon());
  if (!result.ok()) {
    report->Fail("Mine failed: " + result.status().ToString());
    batch.failed_documents = inputs.num_documents;
    batch.documents = inputs.num_documents;
    return batch;
  }
  const Clock::time_point write_start = Clock::now();
  surveyor::serving::SnapshotWriter writer;
  writer.set_label("perfbench mine");
  surveyor::Status written = writer.AddResult(*result, world.kb());
  if (written.ok()) written = writer.WriteToFile(snapshot_path);
  const Clock::time_point end = Clock::now();
  batch.wall_seconds = SecondsBetween(start, end);
  batch.unstolen_seconds = timer.UnstolenSeconds();
  batch.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  batch.write_ms = SecondsBetween(write_start, end) * 1e3;
  if (!written.ok()) report->Fail("snapshot write: " + written.ToString());
  std::error_code size_error;
  batch.snapshot_bytes = static_cast<int64_t>(
      std::filesystem::file_size(snapshot_path, size_error));

  batch.stats = result->stats;
  batch.documents = inputs.num_documents;
  batch.failed_documents = result->stats.num_docs_quarantined;
  if (result->stats.num_documents != inputs.num_documents) {
    batch.failed_documents +=
        std::abs(inputs.num_documents - result->stats.num_documents);
    report->Fail("mined " + std::to_string(result->stats.num_documents) +
                 " of " + std::to_string(inputs.num_documents) + " documents");
  }
  if (!source.status().ok()) report->Fail("source: " + source.status().ToString());
  batch.rows = RowsOf(*result, world.kb());
  if (flip_one && !batch.rows.empty()) {
    OpinionRow& row = batch.rows.front();
    row.polarity = row.polarity == Polarity::kPositive ? Polarity::kNegative
                                                       : Polarity::kPositive;
  }
  batch.hash = Fingerprint(batch.rows);
  batch.f1 = ScoreF1(batch.rows, inputs);
  return batch;
}

void TraceMining(const MineInputs& inputs, int threads,
                 const MineBatch& nproc_batch, double nproc_wall_seconds,
                 Report* report) {
  const surveyor::World& world = *inputs.world;
  const surveyor::KnowledgeBase& kb = world.kb();
  const surveyor::Lexicon& lexicon = world.lexicon();
  const surveyor::SurveyorConfig config = MiningConfig(inputs, 1);

  // One single-thread Mine: the wall the timed layer calls must explain.
  Clock::time_point start = Clock::now();
  surveyor::FileDocumentSource mine_source(inputs.corpus_path);
  auto mined = surveyor::Mine(config, mine_source, kb, lexicon);
  const double single_wall = SecondsSince(start);
  if (!mined.ok()) {
    report->Fail("single-thread Mine failed: " + mined.status().ToString());
    return;
  }
  if (Fingerprint(RowsOf(*mined, kb)) != nproc_batch.hash) {
    report->Fail("single-thread Mine differs from the " +
                 std::to_string(threads) + "-thread Mine");
  }

  // The same pipeline composed on one thread from public calls.
  double source_s = 0, annotate_s = 0, extract_s = 0, aggregate_s = 0;
  int64_t docs = 0, sentences = 0, parsed = 0, statements = 0;
  const surveyor::TextAnnotator annotator(&kb, &lexicon, config.tagger);
  const surveyor::EvidenceExtractor extractor(config.extraction);
  surveyor::EvidenceAggregator shard(config.max_provenance_samples);
  surveyor::FileDocumentSource source(inputs.corpus_path);
  for (;;) {
    Clock::time_point t0 = Clock::now();
    std::optional<surveyor::RawDocument> doc = source.Next();
    Clock::time_point t1 = Clock::now();
    source_s += SecondsBetween(t0, t1);
    if (!doc.has_value()) break;
    ++docs;
    const surveyor::AnnotatedDocument annotated =
        annotator.AnnotateDocument(doc->doc_id, doc->text);
    Clock::time_point t2 = Clock::now();
    const std::vector<surveyor::EvidenceStatement> found =
        extractor.ExtractFromDocument(annotated);
    Clock::time_point t3 = Clock::now();
    shard.AddAll(found);
    Clock::time_point t4 = Clock::now();
    annotate_s += SecondsBetween(t1, t2);
    extract_s += SecondsBetween(t2, t3);
    aggregate_s += SecondsBetween(t3, t4);
    sentences += static_cast<int64_t>(annotated.sentences.size());
    for (const surveyor::AnnotatedSentence& s : annotated.sentences) {
      parsed += s.parsed ? 1 : 0;
    }
    statements += static_cast<int64_t>(found.size());
  }
  start = Clock::now();
  surveyor::EvidenceAggregator merged(config.max_provenance_samples);
  merged.Merge(shard);
  const double merge_s = SecondsSince(start);
  start = Clock::now();
  std::vector<surveyor::PropertyTypeEvidence> all_pairs =
      merged.GroupByType(kb, /*min_statements=*/1);
  std::vector<surveyor::PropertyTypeEvidence> kept;
  for (surveyor::PropertyTypeEvidence& pair : all_pairs) {
    if (pair.total_statements >= config.min_statements) {
      kept.push_back(std::move(pair));
    }
  }
  const double group_s = SecondsSince(start);

  const surveyor::EmLearner learner(config.em);
  double em_s = 0;
  int64_t entities = 0, iterations = 0, grid_evaluations = 0, distinct = 0;
  std::vector<OpinionRow> rows;
  for (const surveyor::PropertyTypeEvidence& pair : kept) {
    start = Clock::now();
    auto fit = learner.Fit(pair.counts);
    em_s += SecondsSince(start);
    if (!fit.ok()) {
      report->Fail("EmLearner::Fit failed: " + fit.status().ToString());
      continue;
    }
    entities += static_cast<int64_t>(pair.entities.size());
    iterations += fit->iterations;
    grid_evaluations += fit->grid_evaluations;
    std::set<std::pair<int64_t, int64_t>> distinct_counts;
    for (const surveyor::EvidenceCounts& c : pair.counts) {
      distinct_counts.insert({c.positive, c.negative});
    }
    distinct += static_cast<int64_t>(distinct_counts.size());
    for (size_t e = 0; e < pair.entities.size(); ++e) {
      const Polarity polarity = surveyor::DecidePolarity(
          fit->responsibilities[e], config.decision_threshold);
      if (polarity == Polarity::kNeutral) continue;
      rows.push_back({kb.entity(pair.entities[e]).canonical_name,
                      kb.TypeName(pair.type), pair.property,
                      fit->responsibilities[e], polarity});
    }
  }
  if (Fingerprint(rows) != Fingerprint(RowsOf(*mined, kb))) {
    report->Fail("composed pipeline output differs from Mine()'s");
  }

  // Annotation's parts, timed on their own over the same documents.
  double split_s = 0, tokenize_s = 0, tag_s = 0, parse_s = 0;
  const surveyor::EntityTagger tagger(&kb, config.tagger);
  const surveyor::DependencyParser parser;
  surveyor::FileDocumentSource part_source(inputs.corpus_path);
  while (std::optional<surveyor::RawDocument> doc = part_source.Next()) {
    Clock::time_point t0 = Clock::now();
    const std::vector<std::string> split = surveyor::SplitSentences(doc->text);
    split_s += SecondsSince(t0);
    for (const std::string& sentence : split) {
      Clock::time_point t1 = Clock::now();
      const std::vector<surveyor::Token> tokens =
          surveyor::Tokenize(sentence, lexicon);
      Clock::time_point t2 = Clock::now();
      const std::vector<surveyor::ParseUnit> units = tagger.Tag(tokens);
      Clock::time_point t3 = Clock::now();
      tokenize_s += SecondsBetween(t1, t2);
      tag_s += SecondsBetween(t2, t3);
      if (units.empty()) continue;
      (void)parser.Parse(units);
      parse_s += SecondsSince(t3);
    }
  }

  const double layered = source_s + annotate_s + extract_s + aggregate_s +
                         merge_s + group_s + em_s;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report->Metric("text.source_ns_per_doc", NsPerDoc(source_s, docs), "ns");
  report->Metric("text.split_ns_per_doc", NsPerDoc(split_s, docs), "ns");
  report->Metric("text.tokenize_ns_per_doc", NsPerDoc(tokenize_s, docs), "ns");
  report->Metric("text.tag_ns_per_doc", NsPerDoc(tag_s, docs), "ns");
  report->Metric("text.parse_ns_per_doc", NsPerDoc(parse_s, docs), "ns");
  report->Metric("text.annotate_ns_per_doc", NsPerDoc(annotate_s, docs), "ns");
  report->Metric("text.parse_ok_ratio",
                 ratio(static_cast<double>(parsed), static_cast<double>(sentences)),
                 "ratio");
  report->Metric("extraction.extract_ns_per_doc", NsPerDoc(extract_s, docs), "ns");
  report->Metric("extraction.statements_per_sentence",
                 ratio(static_cast<double>(statements),
                       static_cast<double>(sentences)),
                 "ratio");
  report->Metric("extraction.aggregate_ns_per_doc", NsPerDoc(aggregate_s, docs),
                 "ns");
  report->Metric("extraction.merge_ms", merge_s * 1e3, "ms");
  report->Metric("extraction.group_ms", group_s * 1e3, "ms");
  report->Metric("extraction.kept_pair_ratio",
                 ratio(static_cast<double>(kept.size()),
                       static_cast<double>(all_pairs.size())),
                 "ratio");
  report->Metric("model.em_ms", em_s * 1e3, "ms");
  report->Metric("model.em_us_per_entity",
                 ratio(em_s * 1e6, static_cast<double>(entities)), "us");
  report->Metric("model.em_iterations_per_pair",
                 ratio(static_cast<double>(iterations),
                       static_cast<double>(kept.size())),
                 "count");
  report->Metric("model.grid_evals_per_pair",
                 ratio(static_cast<double>(grid_evaluations),
                       static_cast<double>(kept.size())),
                 "count");
  report->Metric("model.distinct_count_pair_ratio",
                 ratio(static_cast<double>(distinct),
                       static_cast<double>(entities)),
                 "ratio");
  report->Metric("surveyor.extract_phase_s",
                 nproc_batch.stats.extraction_seconds, "s");
  report->Metric("surveyor.group_phase_s", nproc_batch.stats.grouping_seconds,
                 "s");
  report->Metric("surveyor.em_phase_s", nproc_batch.stats.em_seconds, "s");
  report->Metric("surveyor.scaling_efficiency",
                 ratio(single_wall, threads * nproc_wall_seconds), "ratio");
  report->Metric("surveyor.unattributed_share", 1.0 - ratio(layered, single_wall),
                 "ratio");
  report->Metric("surveyor.single_thread_wall_s", single_wall, "s");
}

}  // namespace perfbench
