#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/featurizer.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

// Every obs metric the library registers (grep of the GetCounter /
// GetHistogram call sites). Snapshots read exactly these.
const char* const kCounterNames[] = {
    "core.train.epochs",
    "core.train.samples",
    "placement.optimizer.calls",
    "placement.optimizer.candidates",
    "placement.optimizer.filtered",
    "placement.scorer.candidates",
    "placement.scorer.encode_cache_hits",
    "placement.scorer.encode_cache_misses",
    "placement.scorer.plan_rebuilds",
    "service.admissions",
    "service.async_admissions_enqueued",
    "service.converge_calls",
    "service.overflow_node_events",
    "service.retirements",
    "service.ripups",
    "service.scoring.cache_hits",
    "service.scoring.cache_misses",
    "service.scoring.pruned",
    "service.scoring.rank_batches",
    "service.scoring.rank_cache_hits",
    "service.scoring.rank_cache_misses",
    "service.scoring.rank_fallbacks",
    "service.scoring.ranked_candidates",
    "service.scoring.rescored_candidates",
    "sim.des.crashes",
    "sim.des.events",
    "sim.des.runs",
    "sim.fluid.backpressure",
    "sim.fluid.bisection_iterations",
    "sim.fluid.crashes",
    "sim.fluid.evaluations",
    "verify.oracle.checks",
    "verify.oracle.violations",
    "workload.corpus.records_generated",
    "workload.reader.block_hits",
    "workload.reader.block_misses",
    "workload.streaming.samples_fetched",
    "workload.trace.blocks_written",
    "workload.trace.bytes_read",
    "workload.trace.bytes_written",
    "workload.trace.records_read",
    "workload.trace.records_written",
};

const char* const kHistogramNames[] = {
    "core.train.epoch_us",
    "placement.optimizer.optimize_us",
    "service.admit_us",
    "service.async_drain_batch",
    "service.async_drain_us",
    "service.converge_iterations",
    "service.converge_us",
    "workload.corpus.build_us",
    "workload.reader.decode_us",
    "workload.streaming.scan_us",
    "workload.trace.load_us",
    "workload.trace.save_us",
};

}  // namespace

bool PinThisThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double QError(double actual, double predicted) {
  const double a = std::max(actual, 1e-9);
  const double p = std::max(predicted, 1e-9);
  return std::max(a / p, p / a);
}

bool Checks::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  if (failed_ <= 10) std::printf("[perfbench] CHECK FAILED: %s\n", what.c_str());
  return false;
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) { spans_.reserve(4096); }

int SpanRecorder::Begin(const std::string& name, int64_t request, int parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_us = SecondsSince(origin_) * 1e6;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int span) {
  spans_[span].end_us = SecondsSince(origin_) * 1e6;
}

std::vector<double> SpanRecorder::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_us >= 0.0 && s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

std::vector<std::string> SpanRecorder::Names() const {
  std::vector<std::string> names;
  for (const Span& s : spans_) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  return names;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out.precision(17);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start_us\": " << s.start_us << ", \"end_us\": " << s.end_us
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

ObsSnapshot ObsSnapshot::Take() {
  namespace obs = costream::obs;
  ObsSnapshot snap;
  for (const char* name : kCounterNames) {
    snap.counters[name] = obs::GetCounter(name).Value();
  }
  for (const char* name : kHistogramNames) {
    const obs::Histogram& h = obs::GetHistogram(name);
    snap.histograms[name] = {h.Count(), h.Sum()};
  }
  return snap;
}

ObsSnapshot ObsSnapshot::Delta(const ObsSnapshot& before) const {
  ObsSnapshot d;
  for (const auto& [name, value] : counters) {
    d.counters[name] = value - before.Counter(name);
  }
  for (const auto& [name, value] : histograms) {
    const auto it = before.histograms.find(name);
    const std::pair<uint64_t, double> base =
        it == before.histograms.end() ? std::pair<uint64_t, double>{0, 0.0}
                                      : it->second;
    d.histograms[name] = {value.first - base.first, value.second - base.second};
  }
  return d;
}

uint64_t ObsSnapshot::Counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t ObsSnapshot::HistCount(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0 : it->second.first;
}

double ObsSnapshot::HistSum(const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? 0.0 : it->second.second;
}

std::string ObsSnapshot::Json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  for (const auto& [name, value] : histograms) {
    if (value.first == 0) continue;
    os << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
       << value.first << ", \"sum\": " << value.second << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

void Report(const RunConfig& config, const std::string& text) {
  std::printf("[perfbench] %s %s\n", config.workload.c_str(), text.c_str());
  std::fflush(stdout);
}

void ReportMetric(const RunConfig& config, const std::string& name,
                  double value, const std::string& unit,
                  const std::string& basis) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  Report(config, name + " = " + buf + " " + unit + " (" + basis + ")");
}

std::string TimingLine(const std::string& name, const std::vector<double>& ms,
                       const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: median %.6g %s, p25 %.6g, p75 %.6g, p90 %.6g, p99 %.6g, "
                "n=%zu",
                name.c_str(), Quantile(ms, 0.5), unit.c_str(),
                Quantile(ms, 0.25), Quantile(ms, 0.75), Quantile(ms, 0.9),
                Quantile(ms, 0.99), ms.size());
  return buf;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashPlacement(const sim::Placement& placement, uint64_t hash) {
  for (int node : placement) {
    hash ^= static_cast<uint64_t>(static_cast<uint32_t>(node));
    hash *= 1099511628211ull;
  }
  hash ^= 0xffull;
  hash *= 1099511628211ull;
  return hash;
}

uint64_t HashDouble(double value, uint64_t hash) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    hash ^= (bits >> (8 * i)) & 0xffull;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::unique_ptr<costream::core::Ensemble> TrainEnsemble(
    const std::vector<costream::workload::TraceRecord>& records,
    const ModelSpec& spec, int threads) {
  namespace core = costream::core;
  core::CostModelConfig config;
  config.hidden_dim = spec.hidden_dim;
  if (!costream::sim::IsRegressionMetric(spec.metric)) {
    config.head = core::HeadKind::kClassification;
  }
  auto ensemble = std::make_unique<core::Ensemble>(config, spec.members);
  const auto samples = costream::workload::ToTrainSamples(
      records, spec.metric, core::FeaturizationMode::kFull, threads);
  core::TrainConfig tc;
  tc.epochs = spec.epochs;
  tc.num_threads = threads;
  ensemble->Train(samples, {}, tc);
  return ensemble;
}

uint64_t EnsembleFingerprint(
    const costream::core::Ensemble& ensemble,
    const std::vector<costream::workload::TraceRecord>& records) {
  uint64_t hash = 1469598103934665603ull;
  const size_t n = std::min<size_t>(records.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    const auto graph = costream::core::BuildJointGraph(
        records[i].query, records[i].cluster, records[i].placement,
        ensemble.featurization());
    const double p = ensemble.head() == costream::core::HeadKind::kRegression
                         ? ensemble.PredictRegression(graph)
                         : ensemble.PredictProbability(graph);
    hash = HashDouble(p, hash);
  }
  return hash;
}

}  // namespace perfbench
