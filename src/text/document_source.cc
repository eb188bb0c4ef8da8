#include "text/document_source.h"

#include "util/fault.h"
#include "util/profile_tag.h"
#include "util/string_util.h"

namespace surveyor {

VectorDocumentSource::VectorDocumentSource(
    const std::vector<RawDocument>* corpus)
    : corpus_(corpus) {
  SURVEYOR_CHECK(corpus_ != nullptr);
}

std::optional<RawDocument> VectorDocumentSource::Next() {
  SURVEYOR_PROFILE_SCOPE("source");
  MutexLock lock(mutex_);
  if (next_ >= corpus_->size()) return std::nullopt;
  return (*corpus_)[next_++];
}

FileDocumentSource::FileDocumentSource(const std::string& path,
                                       FileDocumentSourceOptions options)
    : options_(options) {
  // No other thread can see a half-constructed source, but the analysis
  // checks constructor bodies like any other function.
  MutexLock lock(mutex_);
  stream_.open(path);
  if (!stream_) {
    status_ = Status::NotFound("cannot open '" + path + "'");
  }
}

Status FileDocumentSource::status() const {
  MutexLock lock(mutex_);
  return status_;
}

DocumentSourceCounters FileDocumentSource::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

std::optional<RawDocument> FileDocumentSource::Next() {
  SURVEYOR_PROFILE_SCOPE("source");
  MutexLock lock(mutex_);
  if (!status_.ok()) return std::nullopt;
  std::string line;
  while (true) {
    // The "doc_read" fault point models the flaky storage layer of a
    // cluster read; transient failures are retried per policy. Backoffs
    // are sub-millisecond by default but do hold the source mutex, which
    // is the honest cost of a stalled shared reader.
    RetryResult read = RetryWithBackoff(options_.read_retry, [] {
      if (SURVEYOR_FAULT("doc_read")) {
        return Status::Internal("injected fault: doc_read");
      }
      return Status::OK();
    });
    counters_.read_retries += read.attempts - 1;
    if (!read.status.ok()) {
      status_ = Status::Internal(
          StrFormat("line %d: read failed after %d attempts: %s",
                    line_number_ + 1, read.attempts,
                    read.status.message().c_str()));
      return std::nullopt;
    }
    if (!std::getline(stream_, line)) return std::nullopt;
    ++line_number_;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 3) {
      if (options_.quarantine_corrupt) {
        ++counters_.quarantined_documents;
        continue;
      }
      status_ = Status::InvalidArgument(
          StrFormat("line %d: expected 3 tab-separated fields", line_number_));
      return std::nullopt;
    }
    RawDocument doc;
    try {
      doc.doc_id = std::stoll(fields[0]);
    } catch (...) {
      if (options_.quarantine_corrupt) {
        ++counters_.quarantined_documents;
        continue;
      }
      status_ = Status::InvalidArgument(
          StrFormat("line %d: bad document id '%s'", line_number_,
                    fields[0].c_str()));
      return std::nullopt;
    }
    doc.domain = fields[1];
    doc.text = fields[2];
    return doc;
  }
}

}  // namespace surveyor
