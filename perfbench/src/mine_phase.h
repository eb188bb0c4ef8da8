// The mining half of every workload: a seeded world and corpus file
// (set-up), timed closed batches of surveyor::Mine over that file plus
// the snapshot write (what `surveyor_cli mine --snapshot` does), and the
// traced single-thread composition of the same pipeline out of each
// module's public calls.
#ifndef SURVEYOR_PERFBENCH_MINE_PHASE_H_
#define SURVEYOR_PERFBENCH_MINE_PHASE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "corpus/world.h"
#include "model/opinion.h"
#include "support.h"
#include "surveyor/pipeline.h"

namespace perfbench {

/// One mined opinion with its names resolved: the row a served answer is
/// checked against.
struct OpinionRow {
  std::string entity;
  std::string type;
  std::string property;
  double posterior = 0.5;
  surveyor::Polarity polarity = surveyor::Polarity::kNeutral;
};

struct MineInputs {
  std::optional<surveyor::World> world;
  std::string corpus_path;
  int64_t num_documents = 0;
  /// The simulator's dominant opinion per (entity, property).
  std::map<std::pair<surveyor::EntityId, std::string>, surveyor::Polarity>
      truth;
  int64_t min_statements = 100;
};

/// Generates the world and corpus for `seed` and saves the corpus as TSV
/// under `workdir`. `tiny` selects the two-type world of the self-tests.
MineInputs SetupMine(uint64_t seed, bool tiny, const std::string& workdir);

struct MineBatch {
  double wall_seconds = 0.0;
  /// Wall seconds less the time the host stole (StealAwareTimer).
  double unstolen_seconds = 0.0;
  double cpu_seconds = 0.0;
  int64_t documents = 0;
  int64_t failed_documents = 0;
  /// FNV-1a over the sorted (entity, property, polarity) triples.
  uint64_t hash = 0;
  double f1 = 0.0;
  double write_ms = 0.0;
  int64_t snapshot_bytes = 0;
  surveyor::PipelineStats stats;
  std::vector<OpinionRow> rows;
};

/// One timed batch: Mine over a FileDocumentSource at `threads` workers,
/// then SnapshotWriter::AddResult + WriteToFile to `snapshot_path`.
/// `flip_one` flips the first mined polarity before the fingerprint (the
/// self-test's proof that the check bites).
MineBatch RunMineBatch(const MineInputs& inputs, int threads,
                       const std::string& snapshot_path, bool flip_one,
                       Report* report);

/// The traced mining run: one single-thread Mine and the single-thread
/// composition of the pipeline from public calls, each call timed; emits
/// the text/extraction/model/surveyor per-layer metrics. Fails the report
/// when either output's fingerprint differs from `nproc_batch`'s.
void TraceMining(const MineInputs& inputs, int threads,
                 const MineBatch& nproc_batch, double nproc_wall_seconds,
                 Report* report);

}  // namespace perfbench

#endif  // SURVEYOR_PERFBENCH_MINE_PHASE_H_
