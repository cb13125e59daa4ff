#include "workload/streaming.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "obs/metrics.h"

namespace costream::workload {

StreamingCorpus::StreamingCorpus(TraceReader* reader,
                                 std::vector<int64_t> record_indices,
                                 sim::Metric metric,
                                 const StreamingCorpusOptions& options)
    : reader_(reader), metric_(metric), options_(options) {
  COSTREAM_CHECK(reader_ != nullptr);
  static obs::Histogram& scan_us =
      obs::GetHistogram("workload.streaming.scan_us");
  obs::ScopedTimer timer(scan_us);

  const bool regression = sim::IsRegressionMetric(metric_);
  const size_t n = record_indices.size();
  // Visit walks the records in file order, so each compressed block decodes
  // once during the scan; keep/label land in slots addressed by the split
  // position, so the sample order below is the split order regardless.
  std::vector<char> keep(n, 0);
  std::vector<char> label(n, 0);
  const bool scanned = reader_->Visit(
      record_indices.data(), n, [&](size_t p, const TraceRecord& record) {
        if (regression && !record.metrics.success) return;
        keep[p] = 1;
        // Regression samples leave TrainSample::label false (FeaturizeRecord
        // never sets it), so they must not count as positives here either.
        if (!regression && sim::BinaryLabel(record.metrics, metric_)) {
          label[p] = 1;
        }
      });
  COSTREAM_CHECK(scanned);
  sample_to_record_.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    if (!keep[p]) {
      ++dropped_;
      continue;
    }
    sample_to_record_.push_back(record_indices[p]);
    positives_ += label[p];
  }
}

StreamingCorpus::StreamingCorpus(TraceReader* reader,
                                 std::vector<int64_t> record_indices,
                                 sim::Metric metric)
    : StreamingCorpus(reader, std::move(record_indices), metric,
                      StreamingCorpusOptions{}) {}

void StreamingCorpus::Fetch(const int64_t* ids, int count,
                            const core::TrainSample** out) {
  static obs::Counter& fetched =
      obs::GetCounter("workload.streaming.samples_fetched");
  COSTREAM_CHECK(count >= 0);
  std::vector<int64_t> record_ids(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    COSTREAM_CHECK(ids[i] >= 0 && ids[i] < size());
    record_ids[static_cast<size_t>(i)] =
        sample_to_record_[static_cast<size_t>(ids[i])];
  }
  // Each block of the batch decodes at most once, and records featurize
  // straight from the decoded block into their per-index slots.
  buffer_.resize(static_cast<size_t>(count));
  std::atomic<bool> featurized{true};
  const bool decoded = reader_->Visit(
      record_ids.data(), record_ids.size(),
      [&](size_t i, const TraceRecord& record) {
        // The scan already established this record survives featurization.
        if (!FeaturizeRecord(record, metric_, options_.mode, &buffer_[i])) {
          featurized.store(false, std::memory_order_relaxed);
        }
      },
      options_.num_threads);
  // A block that validated at Open can only fail here if the file mutated
  // underneath the mapping; training on silently-missing samples would be
  // worse than dying.
  COSTREAM_CHECK(decoded && featurized.load());
  for (int i = 0; i < count; ++i) out[i] = &buffer_[static_cast<size_t>(i)];
  fetched.Add(static_cast<uint64_t>(count));
}

}  // namespace costream::workload
