#include "workload/trace_reader.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "workload/trace_format.h"

namespace costream::workload {

namespace {

obs::Counter& BlockHitsCounter() {
  static obs::Counter& c = obs::GetCounter("workload.reader.block_hits");
  return c;
}
obs::Counter& BlockMissesCounter() {
  static obs::Counter& c = obs::GetCounter("workload.reader.block_misses");
  return c;
}
obs::Histogram& DecodeLatency() {
  static obs::Histogram& h = obs::GetHistogram("workload.reader.decode_us");
  return h;
}
obs::Gauge& CachedBytesGauge() {
  static obs::Gauge& g = obs::GetGauge("workload.reader.cached_bytes");
  return g;
}

}  // namespace

std::unique_ptr<TraceReader> TraceReader::Open(
    const std::string& path, const TraceReaderOptions& options) {
  auto reader = std::unique_ptr<TraceReader>(new TraceReader());
  reader->options_ = options;
  reader->options_.max_cached_blocks =
      std::max(reader->options_.max_cached_blocks, 1);
  if (!InspectTraceFile(path, &reader->info_)) return nullptr;
  if (!reader->file_.Open(path)) return nullptr;

  if (reader->info_.version == 1) {
    // v1 text has no random-access structure; parse it once, eagerly.
    reader->mode_ = Mode::kEager;
    if (!LoadTracesFromFile(path, &reader->records_)) return nullptr;
    reader->num_records_ = static_cast<int64_t>(reader->records_.size());
    return reader;
  }

  reader->link_fields_ = reader->info_.link_matrices;
  reader->num_records_ = static_cast<int64_t>(reader->info_.record_count);
  if (reader->info_.compressed) {
    reader->mode_ = Mode::kCompressedV2;
    if (!reader->OpenCompressed()) return nullptr;
  } else {
    reader->mode_ = Mode::kPlainV2;
    if (!reader->OpenPlain()) return nullptr;
  }
  return reader;
}

std::unique_ptr<TraceReader> TraceReader::Open(const std::string& path) {
  return Open(path, TraceReaderOptions{});
}

bool TraceReader::OpenPlain() {
  // One pass over the record frames records where each body lives; bodies
  // themselves are parsed lazily per Get.
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(file_.data());
  internal::Cursor cur{base + info_.header_bytes, base + file_.size()};
  offsets_.reserve(static_cast<size_t>(num_records_));
  sizes_.reserve(static_cast<size_t>(num_records_));
  for (int64_t i = 0; i < num_records_; ++i) {
    uint32_t payload = 0;
    if (!cur.GetU32(&payload) || cur.remaining() < payload) return false;
    offsets_.push_back(static_cast<uint64_t>(cur.p - base));
    sizes_.push_back(payload);
    cur.p += payload;
  }
  return cur.remaining() == 0;  // trailing garbage fails closed
}

bool TraceReader::OpenCompressed() {
  // The sequential loader tolerates a broken index (it has the blocks);
  // random access depends on it, so everything is validated fail-closed
  // here: contiguous block extents starting right after the header and
  // ending at the index, monotone contiguous record ranges covering
  // [0, record_count), and frame headers that agree with their entries.
  if (!info_.index_ok) return false;
  const uint64_t record_count = info_.record_count;
  if (info_.blocks.empty()) return record_count == 0;

  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(file_.data());
  uint64_t expected_offset = info_.header_bytes;
  uint64_t expected_record = 0;
  first_records_.reserve(info_.blocks.size());
  for (const TraceBlockInfo& block : info_.blocks) {
    if (block.offset != expected_offset) return false;
    if (block.first_record != expected_record) return false;
    if (block.record_count == 0) return false;
    if (block.uncompressed_bytes > internal::kMaxBlockUncompressedBytes) {
      return false;
    }
    const uint64_t end =
        block.offset + internal::kBlockFrameBytes + block.compressed_bytes;
    if (end < block.offset || end > info_.index_offset) return false;
    // The frame header on disk must agree with the index entry.
    internal::Cursor cur{base + block.offset, base + file_.size()};
    internal::BlockFrame frame;
    if (!internal::GetBlockFrame(&cur, &frame)) return false;
    if (frame.compressed_bytes != block.compressed_bytes ||
        frame.uncompressed_bytes != block.uncompressed_bytes ||
        frame.record_count != block.record_count ||
        frame.checksum != block.checksum ||
        (frame.flags & ~internal::kKnownBlockFlags) != 0) {
      return false;
    }
    first_records_.push_back(block.first_record);
    expected_offset = end;
    expected_record += block.record_count;
  }
  if (expected_offset != info_.index_offset) return false;
  return expected_record == record_count;
}

std::shared_ptr<const std::vector<TraceRecord>> TraceReader::DecodeBlock(
    size_t block) const {
  const TraceBlockInfo& entry = info_.blocks[block];
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(file_.data());
  internal::Cursor cur{base + entry.offset, base + file_.size()};
  internal::BlockFrame frame;
  if (!internal::GetBlockFrame(&cur, &frame)) return nullptr;
  obs::ScopedTimer timer(DecodeLatency());
  std::string payload;
  if (!internal::DecodeBlockPayload(cur.p, frame, &payload)) return nullptr;
  auto records = std::make_shared<std::vector<TraceRecord>>();
  records->reserve(entry.record_count);
  internal::Cursor body{
      reinterpret_cast<const unsigned char*>(payload.data()),
      reinterpret_cast<const unsigned char*>(payload.data()) + payload.size()};
  if (!internal::ParseRecordFrames(&body, entry.record_count, link_fields_,
                                   records.get())) {
    return nullptr;
  }
  if (body.remaining() != 0) return nullptr;
  return records;
}

std::shared_ptr<const std::vector<TraceRecord>> TraceReader::GetBlock(
    size_t block) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(block);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      hits_.fetch_add(1, std::memory_order_relaxed);
      BlockHitsCounter().Add(1);
      return it->second.records;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  BlockMissesCounter().Add(1);
  // Decode outside the lock so concurrent misses on different blocks
  // overlap; a duplicate decode of the same block is resolved below.
  auto records = DecodeBlock(block);
  if (records == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(block);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.records;
  }
  lru_.push_front(block);
  CacheEntry entry;
  entry.records = records;
  entry.bytes = info_.blocks[block].uncompressed_bytes;
  entry.lru_it = lru_.begin();
  cached_bytes_now_ += entry.bytes;
  cache_.emplace(block, std::move(entry));
  while (cache_.size() > static_cast<size_t>(options_.max_cached_blocks)) {
    const size_t victim = lru_.back();
    lru_.pop_back();
    auto victim_it = cache_.find(victim);
    cached_bytes_now_ -= victim_it->second.bytes;
    cache_.erase(victim_it);
  }
  uint64_t peak = peak_cached_bytes_.load(std::memory_order_relaxed);
  while (cached_bytes_now_ > peak &&
         !peak_cached_bytes_.compare_exchange_weak(peak, cached_bytes_now_)) {
  }
  CachedBytesGauge().Set(static_cast<double>(cached_bytes_now_));
  return records;
}

size_t TraceReader::BlockOf(int64_t index) const {
  const auto it = std::upper_bound(first_records_.begin(),
                                   first_records_.end(),
                                   static_cast<uint64_t>(index));
  return static_cast<size_t>(it - first_records_.begin()) - 1;
}

bool TraceReader::ParsePlain(int64_t index, TraceRecord* out) const {
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(file_.data());
  const size_t i = static_cast<size_t>(index);
  internal::Cursor body{base + offsets_[i], base + offsets_[i] + sizes_[i]};
  *out = TraceRecord{};
  return internal::ParseRecordBody(body, link_fields_, out);
}

bool TraceReader::Get(int64_t index, TraceRecord* out) {
  COSTREAM_CHECK(out != nullptr);
  COSTREAM_CHECK(index >= 0 && index < num_records_);
  switch (mode_) {
    case Mode::kEager:
      *out = records_[static_cast<size_t>(index)];
      return true;
    case Mode::kPlainV2:
      return ParsePlain(index, out);
    case Mode::kCompressedV2: {
      const size_t block = BlockOf(index);
      const auto records = GetBlock(block);
      if (records == nullptr) return false;
      *out = (*records)[static_cast<size_t>(index) - first_records_[block]];
      return true;
    }
  }
  return false;
}

bool TraceReader::Visit(const int64_t* ids, size_t count, const VisitFn& fn,
                        int fn_threads) {
  COSTREAM_CHECK(count <= static_cast<size_t>(INT32_MAX));
  for (size_t i = 0; i < count; ++i) {
    COSTREAM_CHECK(ids[i] >= 0 && ids[i] < num_records_);
  }
  // One pool per call, reused by every wave, instead of one per wave.
  std::unique_ptr<common::ThreadPool> fn_pool;
  const int resolved_fn_threads = std::min(
      common::ResolveNumThreads(fn_threads), static_cast<int>(count));
  if (resolved_fn_threads > 1) {
    fn_pool = std::make_unique<common::ThreadPool>(resolved_fn_threads);
  }
  const auto for_each = [&](size_t n, const std::function<void(int)>& body) {
    if (fn_pool != nullptr) {
      fn_pool->ParallelFor(static_cast<int>(n), body);
    } else {
      for (size_t k = 0; k < n; ++k) body(static_cast<int>(k));
    }
  };

  if (mode_ == Mode::kEager) {
    for_each(count, [&](int k) {
      fn(static_cast<size_t>(k), records_[static_cast<size_t>(ids[k])]);
    });
    return true;
  }
  if (mode_ == Mode::kPlainV2) {
    std::atomic<bool> ok{true};
    for_each(count, [&](int k) {
      TraceRecord record;
      if (!ParsePlain(ids[k], &record)) {
        ok.store(false, std::memory_order_relaxed);
        return;
      }
      fn(static_cast<size_t>(k), record);
    });
    return ok.load();
  }

  // Compressed: positions sorted by record id, so each block's records form
  // one contiguous run and the runs come in file order.
  std::vector<size_t> order(count);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return ids[a] < ids[b]; });
  struct Run {
    size_t block;
    size_t end;  // one past the run's last position in `order`
  };
  std::vector<Run> runs;
  for (size_t k = 0; k < count; ++k) {
    const size_t block = BlockOf(ids[order[k]]);
    if (runs.empty() || runs.back().block != block) runs.push_back({block, k});
    runs.back().end = k + 1;
  }

  const size_t wave =
      static_cast<size_t>(common::ResolveNumThreads(options_.num_threads));
  std::unique_ptr<common::ThreadPool> decode_pool;
  if (wave > 1 && runs.size() > 1) {
    decode_pool = std::make_unique<common::ThreadPool>(
        static_cast<int>(std::min(wave, runs.size())));
  }
  std::vector<std::shared_ptr<const std::vector<TraceRecord>>> pinned;
  std::vector<const TraceRecord*> visit;
  size_t begin = 0;  // first position of the current wave in `order`
  for (size_t w = 0; w < runs.size(); w += wave) {
    const size_t n = std::min(wave, runs.size() - w);
    pinned.assign(n, nullptr);
    const auto decode = [&](int j) { pinned[j] = GetBlock(runs[w + j].block); };
    if (decode_pool != nullptr) {
      decode_pool->ParallelFor(static_cast<int>(n), decode);
    } else {
      for (size_t j = 0; j < n; ++j) decode(static_cast<int>(j));
    }
    for (const auto& block : pinned) {
      if (block == nullptr) return false;
    }
    const size_t end = runs[w + n - 1].end;
    visit.clear();
    for (size_t k = begin, j = 0; k < end; ++k) {
      while (k >= runs[w + j].end) ++j;
      const uint64_t first = first_records_[runs[w + j].block];
      visit.push_back(
          &(*pinned[j])[static_cast<uint64_t>(ids[order[k]]) - first]);
    }
    for_each(visit.size(), [&](int k) {
      fn(order[begin + static_cast<size_t>(k)], *visit[static_cast<size_t>(k)]);
    });
    begin = end;
  }
  return true;
}

int TraceReader::cached_blocks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(cache_.size());
}

uint64_t TraceReader::cached_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cached_bytes_now_;
}

}  // namespace costream::workload
