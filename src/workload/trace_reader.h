#ifndef COSTREAM_WORKLOAD_TRACE_READER_H_
#define COSTREAM_WORKLOAD_TRACE_READER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mmap_file.h"
#include "workload/corpus.h"
#include "workload/trace_io.h"

namespace costream::workload {

struct TraceReaderOptions {
  // Upper bound on simultaneously cached decoded blocks (compressed images
  // only). Peak reader memory is roughly this many blocks' uncompressed
  // payloads plus the mmap (which the OS pages in lazily).
  int max_cached_blocks = 16;
  // Blocks Visit decodes concurrently per wave, and so also the most blocks
  // one Visit keeps pinned at a time (<= 0 means all hardware threads).
  int num_threads = 1;
};

// Random-access reader over a trace file that never materializes the whole
// corpus. The file is memory-mapped; what happens per Get depends on the
// format:
//
//   v2 compressed  the trailing block index (validated fail-closed at Open:
//                  contiguous offsets, monotone record ranges, count
//                  agreement with the header) maps a record to its block,
//                  which is checksum-verified, decompressed and parsed on
//                  first touch, then held in a bounded LRU cache.
//   v2 plain       a frame-offset scan at Open locates every record; Get
//                  parses the one record zero-copy from the mapping.
//   v1 text        eagerly parsed at Open (the text format has no random
//                  access structure); Get copies from memory.
//
// Get and Visit are safe to call concurrently. Cache hits/misses and block
// decode time are exported through obs ("workload.reader.*") and as
// per-instance counters for tests.
//
// Memory bound (compressed images): decoded records resident at any time
// are at most max_cached_blocks blocks held by the LRU plus, per running
// Visit, at most num_threads blocks pinned by its current wave (a pinned
// block the LRU evicts stays alive until the wave's records are visited).
// Streaming training adds one Fetch's featurized samples on top:
// core::TrainModelStreaming fetches whole mini-batches in windows of
// max(1, 256 / batch_size) batches, i.e. at most max(256, batch_size).
class TraceReader {
 public:
  // Returns null when the file cannot be opened, is not a recognizable
  // trace, or (compressed) its block index is missing, corrupt, or
  // inconsistent with the header and block frames.
  static std::unique_ptr<TraceReader> Open(const std::string& path,
                                           const TraceReaderOptions& options);
  static std::unique_ptr<TraceReader> Open(const std::string& path);

  int64_t num_records() const { return num_records_; }
  const TraceFileInfo& info() const { return info_; }

  // Copies record `index` (0-based) into *out. False only when the record's
  // block fails to decode — possible despite Open's index validation if the
  // file mutated underneath the mapping.
  bool Get(int64_t index, TraceRecord* out);

  // Receives (position in the ids array, record ids[position]). The record
  // reference is valid only for the duration of the call.
  using VisitFn = std::function<void(size_t, const TraceRecord&)>;

  // Calls fn(i, record ids[i]) exactly once for every i in [0, count); ids
  // may repeat and come in any order. Compressed images: the ids are sorted
  // by record and the distinct blocks walked in file order, each looked up
  // once per call (decoded on a cache miss) in waves of up to num_threads
  // blocks decoded concurrently; a wave's blocks stay pinned while fn reads
  // their records straight from the cache, without copying. v1 and plain v2
  // visit one record at a time. fn runs on up to `fn_threads` workers at
  // once (on distinct i; <= 0 means all hardware threads); with 1 it runs
  // serially on the calling thread. Returns false, having visited only some
  // ids, when a block or record fails to decode.
  bool Visit(const int64_t* ids, size_t count, const VisitFn& fn,
             int fn_threads = 1);

  // Per-instance cache statistics (compressed images only).
  uint64_t block_hits() const { return hits_.load(); }
  uint64_t block_misses() const { return misses_.load(); }
  int cached_blocks() const;
  // Sum of the cached blocks' uncompressed payload bytes — the proxy used
  // for the memory bound (decoded records track payload size closely).
  uint64_t cached_bytes() const;
  uint64_t peak_cached_bytes() const { return peak_cached_bytes_.load(); }

 private:
  enum class Mode { kEager, kPlainV2, kCompressedV2 };

  TraceReader() = default;

  bool OpenPlain();
  bool OpenCompressed();
  size_t BlockOf(int64_t index) const;
  bool ParsePlain(int64_t index, TraceRecord* out) const;
  std::shared_ptr<const std::vector<TraceRecord>> GetBlock(size_t block);
  std::shared_ptr<const std::vector<TraceRecord>> DecodeBlock(
      size_t block) const;

  TraceReaderOptions options_;
  TraceFileInfo info_;
  common::MappedFile file_;
  Mode mode_ = Mode::kEager;
  int64_t num_records_ = 0;
  bool link_fields_ = false;

  std::vector<TraceRecord> records_;   // kEager
  std::vector<uint64_t> offsets_;      // kPlainV2: frame payload offsets
  std::vector<uint32_t> sizes_;        // kPlainV2: frame payload sizes
  std::vector<uint64_t> first_records_;  // kCompressedV2: per-block start id

  struct CacheEntry {
    std::shared_ptr<const std::vector<TraceRecord>> records;
    uint64_t bytes = 0;
    std::list<size_t>::iterator lru_it;
  };
  mutable std::mutex mu_;
  std::unordered_map<size_t, CacheEntry> cache_;
  std::list<size_t> lru_;  // front = most recently used
  uint64_t cached_bytes_now_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> peak_cached_bytes_{0};
};

}  // namespace costream::workload

#endif  // COSTREAM_WORKLOAD_TRACE_READER_H_
