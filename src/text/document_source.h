#ifndef SURVEYOR_TEXT_DOCUMENT_SOURCE_H_
#define SURVEYOR_TEXT_DOCUMENT_SOURCE_H_

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "text/document.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace surveyor {

/// Fault-handling counters of a DocumentSource, reported into the
/// pipeline's metrics (surveyor_retries_total,
/// surveyor_docs_quarantined_total).
struct DocumentSourceCounters {
  /// Read attempts beyond the first (i.e. recoveries from transient
  /// failures).
  int64_t read_retries = 0;
  /// Documents dropped as unparseable instead of failing the stream
  /// (quarantine mode only).
  int64_t quarantined_documents = 0;
};

/// Pull-based document stream. The deployed system processed a 40 TB
/// snapshot that could never sit in memory; this interface lets the
/// pipeline consume documents incrementally from any backing store.
/// Implementations must be thread-safe: extraction workers pull from the
/// same source concurrently.
class DocumentSource {
 public:
  virtual ~DocumentSource() = default;

  /// Returns the next document, or nullopt at end of stream.
  virtual std::optional<RawDocument> Next() = 0;

  /// Stream health after Next() returned nullopt: OK when the stream was
  /// fully consumed, an error when it ended early (the pipeline reports
  /// that as a truncated corpus rather than silently under-counting).
  virtual Status status() const { return Status::OK(); }

  /// Fault-handling accounting; zero for sources that cannot fail.
  virtual DocumentSourceCounters counters() const { return {}; }
};

/// Adapts an in-memory corpus to the streaming interface; documents come
/// out in corpus order.
class VectorDocumentSource : public DocumentSource {
 public:
  /// `corpus` must outlive the source.
  explicit VectorDocumentSource(const std::vector<RawDocument>* corpus);

  std::optional<RawDocument> Next() override SURVEYOR_EXCLUDES(mutex_);

 private:
  const std::vector<RawDocument>* corpus_;
  Mutex mutex_;
  size_t next_ SURVEYOR_GUARDED_BY(mutex_) = 0;
};

/// Fault-handling knobs of FileDocumentSource.
struct FileDocumentSourceOptions {
  /// Retry policy for transient read failures (exercised through the
  /// "doc_read" fault point; real I/O errors from the stream are
  /// currently terminal).
  RetryPolicy read_retry;
  /// When true, a malformed line is counted and skipped instead of ending
  /// the stream with an error — the 40-TB-snapshot posture where corrupt
  /// documents are routine. Default false: a corpus file you authored
  /// should fail loudly.
  bool quarantine_corrupt = false;
};

/// Streams a corpus.tsv file (the format of SaveCorpus) from disk without
/// loading it whole.
class FileDocumentSource : public DocumentSource {
 public:
  /// Opens the file; check `status()` before use.
  explicit FileDocumentSource(const std::string& path,
                              FileDocumentSourceOptions options = {});

  /// OK when the file opened; parsing errors surface here after the
  /// offending Next() returned nullopt. Returns a copy: workers may be
  /// writing the status under the mutex while a coordinator polls it.
  Status status() const override SURVEYOR_EXCLUDES(mutex_);

  DocumentSourceCounters counters() const override SURVEYOR_EXCLUDES(mutex_);

  std::optional<RawDocument> Next() override SURVEYOR_EXCLUDES(mutex_);

 private:
  const FileDocumentSourceOptions options_;
  mutable Mutex mutex_;
  std::ifstream stream_ SURVEYOR_GUARDED_BY(mutex_);
  Status status_ SURVEYOR_GUARDED_BY(mutex_);
  DocumentSourceCounters counters_ SURVEYOR_GUARDED_BY(mutex_);
  int line_number_ SURVEYOR_GUARDED_BY(mutex_) = 0;
};

}  // namespace surveyor

#endif  // SURVEYOR_TEXT_DOCUMENT_SOURCE_H_
