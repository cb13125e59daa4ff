// label_train: the model-building batch job. One episode labels a corpus
// with the fluid engine (BuildCorpus), writes it as a block-compressed v2c
// trace with TraceWriter, trains a throughput model with
// TrainModelStreaming over that file through TraceReader + StreamingCorpus,
// and finishes with a held-out EvaluateRegression. The only workload that
// runs backward/Adam and the trace writer next to the reader; it does no
// placement. Episodes run over a few corpora in passes until the measuring
// time is used; the first pass warms up, and a repeated episode must
// reproduce its first model.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/trainer.h"
#include "workload/streaming.h"
#include "workload/trace_io.h"
#include "workload/trace_reader.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kRecords = 480;
constexpr int kTestRecords = 4000;
constexpr int kEpochs = 3;
// Distinct corpora (episodes) per pass.
constexpr int kCorpora = 4;
// Small blocks so the trace spans many of them and the reader's bounded
// block cache sees both misses and hits.
constexpr size_t kBlockBytes = size_t{16} << 10;

// FNV-1a of the canonical v2 image of `records`: equal hashes mean equal
// record contents, field for field.
uint64_t ContentHash(const std::vector<wl::TraceRecord>& records) {
  std::ostringstream os;
  wl::SaveTracesV2(os, records);
  const std::string bytes = std::move(os).str();
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct Episode {
  double pipeline_s = 0.0;
  double qerror_p50 = 0.0;
  std::vector<wl::TraceRecord> records;
  std::unique_ptr<core::Ensemble> model;
};

// Episode `index` labels its own corpus (sub-seed of the run seed), so a
// run averages over several corpora.
Episode RunEpisode(const RunConfig& config,
                   const std::vector<core::TrainSample>& test,
                   Checks& checks, SpanRecorder* spans, int64_t index) {
  const int64_t request = index;
  Episode ep;
  const std::string path = config.scratch_dir + "/label_train.v2c";
  const auto start = Clock::now();
  {
    ScopedSpan span(spans, "workload.BuildCorpus", request);
    wl::CorpusConfig cc;
    cc.num_queries = kRecords;
    cc.seed = SubSeed(config.seed, 1000 + static_cast<uint64_t>(index));
    cc.duration_s = 30.0;
    cc.num_threads = config.threads;
    ep.records = wl::BuildCorpus(cc);
  }
  bool written = false;
  {
    ScopedSpan span(spans, "workload.TraceWriter", request);
    wl::TraceWriter writer;
    wl::TraceWriter::Options options;
    options.format = wl::TraceFormat::kBinaryV2Compressed;
    options.block_bytes = kBlockBytes;
    written = writer.Open(path, options);
    for (const auto& r : ep.records) written = writer.Append(r) && written;
    written = writer.Finish() && written;
  }
  checks.Expect(written, "trace written");
  std::unique_ptr<wl::TraceReader> reader;
  {
    ScopedSpan span(spans, "workload.TraceReader.Open", request);
    wl::TraceReaderOptions ro;
    ro.max_cached_blocks = 4;
    ro.num_threads = config.threads;
    reader = wl::TraceReader::Open(path, ro);
  }
  if (!checks.Expect(reader != nullptr, "trace reopens")) return ep;
  checks.Expect(reader->num_records() ==
                    static_cast<int64_t>(ep.records.size()),
                "trace round trip keeps the record count");

  core::CostModelConfig mc;
  mc.hidden_dim = 16;
  ep.model = std::make_unique<core::Ensemble>(mc, 1);
  {
    ScopedSpan span(spans, "core.TrainModelStreaming", request);
    const wl::SplitIndices split = wl::SplitCorpus(
        static_cast<int64_t>(ep.records.size()), 0.85, 0.15,
        SubSeed(config.seed, 41 + static_cast<uint64_t>(index)));
    wl::StreamingCorpusOptions so;
    so.num_threads = config.threads;
    wl::StreamingCorpus train(reader.get(), split.train,
                              sim::Metric::kThroughput, so);
    wl::StreamingCorpus val(reader.get(), split.val, sim::Metric::kThroughput,
                            so);
    core::TrainConfig tc;
    tc.epochs = kEpochs;
    tc.num_threads = config.threads;
    core::TrainModelStreaming(ep.model->member(0), train, val, tc);
  }
  {
    ScopedSpan span(spans, "core.EvaluateRegression", request);
    ep.qerror_p50 = core::EvaluateRegression(ep.model->member(0), test).q50;
  }
  ep.pipeline_s = SecondsSince(start);

  // Round trip, outside the timed pipeline: every record read back equals
  // the one written.
  std::vector<wl::TraceRecord> back(ep.records.size());
  bool read_ok = true;
  for (size_t i = 0; i < back.size(); ++i) {
    read_ok = reader->Get(static_cast<int64_t>(i), &back[i]) && read_ok;
  }
  checks.Expect(read_ok && ContentHash(back) == ContentHash(ep.records),
                "trace round trip keeps the record contents");
  checks.Expect(std::isfinite(ep.qerror_p50), "finite held-out q-error");
  reader.reset();
  std::remove(path.c_str());
  return ep;
}

}  // namespace

void RunLabelTrain(const RunConfig& config, Checks& checks,
                   WorkloadOutput* out) {
  const ObsSnapshot before = ObsSnapshot::Take();

  // Set-up: the held-out test set, labelled and featurized.
  std::vector<double> setup_s;
  std::vector<core::TrainSample> test;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const auto start = Clock::now();
    wl::CorpusConfig cc;
    cc.num_queries = kTestRecords;
    cc.seed = SubSeed(config.seed, 42);
    cc.duration_s = 30.0;
    cc.num_threads = config.threads;
    test = wl::ToTrainSamples(wl::BuildCorpus(cc), sim::Metric::kThroughput,
                              core::FeaturizationMode::kFull, config.threads);
    setup_s.push_back(SecondsSince(start));
  }
  checks.Expect(!test.empty(), "held-out test set is not empty");
  out->switches = "{\"trace_format\": \"v2c\", \"block_bytes\": " +
                  std::to_string(kBlockBytes) + ", \"epochs\": " +
                  std::to_string(kEpochs) + "}";

  // Passes over the corpora until time is up: a warm-up pass, then at least
  // two timed untraced ones. Traced runs trace every other timed pass.
  SpanRecorder spans;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<double> qerrors(kCorpora, 0.0);
  Episode last;
  const int min_passes = config.trace ? 5 : 3;
  const auto start = Clock::now();
  for (int64_t k = 0; k < min_passes * kCorpora || k % kCorpora != 0 ||
                      SecondsSince(start) < config.seconds;
       ++k) {
    const int64_t corpus = k % kCorpora;
    const int64_t pass = k / kCorpora;
    const bool trace_this = config.trace && pass % 2 == 0 && pass > 0;
    Episode ep = RunEpisode(config, test, checks, trace_this ? &spans : nullptr,
                            corpus);
    checks.Attempt();
    if (pass == 0) {
      qerrors[corpus] = ep.qerror_p50;
    } else {
      // Training is deterministic: a repeated episode reproduces its first
      // model bit for bit.
      checks.Expect(ep.qerror_p50 == qerrors[corpus],
                    "a repeated episode reproduces its first model");
      (trace_this ? traced_ms : untraced_ms).push_back(ep.pipeline_s * 1e3);
    }
    last = std::move(ep);
  }
  const ObsSnapshot leg = ObsSnapshot::Take().Delta(before);

  const double pipeline_ms = Median(untraced_ms);
  double total_ms = 0.0;
  for (double ms : untraced_ms) total_ms += ms;
  ReportMetric(config, "setup_s", Median(setup_s), "s", SetupBasis());
  ReportMetric(config, "pipeline_s", pipeline_ms / 1e3, "s",
               "median, n=" + std::to_string(untraced_ms.size()) +
                   " episodes over " + std::to_string(kCorpora) +
                   " corpora of " + std::to_string(kRecords) + " records");
  Report(config, TimingLine("pipeline_ms", untraced_ms, "ms"));
  ReportMetric(config, "test_qerror_p50", Median(qerrors), "ratio",
               "median over " + std::to_string(kCorpora) + " models, " +
                   std::to_string(test.size()) + " held-out samples");
  Report(config, "obs deltas: " + leg.Json());

  if (!config.trace) {
    SetEndToEnd(out, Median(setup_s), untraced_ms,
                kRecords * static_cast<double>(untraced_ms.size()) /
                    (total_ms / 1e3));
    return;
  }

  out->per_layer["bench.tracing_overhead_pct"] = {
      pipeline_ms > 0.0
          ? 100.0 * (Median(traced_ms) - pipeline_ms) / pipeline_ms
          : 0.0,
      "%"};
  AddLegCounters(leg, &out->per_layer);

  ProbeInputs probe;
  probe.cluster = last.records.front().cluster;
  for (size_t i = 0; i < std::min<size_t>(last.records.size(), 160); ++i) {
    probe.queries.push_back(last.records[i].query);
    probe.optimize_clusters.push_back(last.records[i].cluster);
  }
  probe.ramp = 120;
  probe.target = last.model.get();
  probe.metric = sim::Metric::kThroughput;
  probe.service_config.target = sim::Metric::kThroughput;
  probe.service_config.num_candidates = 8;
  probe.service_config.seed = SubSeed(config.seed, 43);
  RunLayerProbe(config, probe, checks, spans, &out->per_layer);
  FinishTrace(config, spans);
}

}  // namespace perfbench
