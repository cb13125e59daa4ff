// Shared plumbing of the repository benchmark: run configuration, sample
// statistics, correctness accounting, in-memory spans, obs counter deltas,
// model training and the result/report printers used by every workload.
#ifndef COSTREAM_PERFBENCH_HARNESS_H_
#define COSTREAM_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "sim/cost_metrics.h"
#include "sim/hardware.h"
#include "workload/corpus.h"

namespace perfbench {

namespace core = costream::core;
namespace sim = costream::sim;
namespace wl = costream::workload;

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Library worker threads of the workload itself: one, so a timing
  // measures the program rather than how a shared host schedules a pool.
  int threads = 1;
  // Thread count of the traced run's N-thread legs (service and optimizer
  // at 1 vs N threads): min(4, CPUs in the affinity set), and those CPUs
  // (empty when pinning failed).
  int probe_threads = 1;
  std::vector<int> probe_cpus;
  // Directory for files a run writes (trace files, span dumps).
  std::string scratch_dir;
};

// Restricts the calling thread, and every thread it starts afterwards, to
// `cpus`. An empty set or a failed call leaves the affinity unchanged and
// returns false.
bool PinThisThread(const std::vector<int>& cpus);

// --- Statistics -------------------------------------------------------------

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double GeoMean(const std::vector<double>& values);

// max(a/b, b/a) with both floored at a tiny positive value.
double QError(double actual, double predicted);

// --- Correctness accounting -------------------------------------------------

// Every operation and every output check counts as attempted; failures are
// counted and the first few are printed with their reason.
class Checks {
 public:
  void Attempt() { ++attempted_; }
  // Counts one attempted check; on failure counts it failed and logs `what`.
  bool Expect(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- Spans ------------------------------------------------------------------

// Outside-in spans: the benchmark opens one around each call it makes into a
// library module. Spans of one request share `request`; `parent` is the
// index of the enclosing span (-1 for a root). Kept in memory, written once
// at the end of the run.
class SpanRecorder {
 public:
  SpanRecorder();
  int Begin(const std::string& name, int64_t request, int parent = -1);
  void End(int span);
  // Durations (microseconds) of every finished span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  // Names in first-seen order.
  std::vector<std::string> Names() const;
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t request = 0;
    int parent = -1;
    double start_us = 0.0;
    double end_us = -1.0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int64_t request,
             int parent = -1)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, request, parent)
                                : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// --- obs deltas -------------------------------------------------------------

// Values of every obs counter and histogram (count, sum) the library
// registers, taken at one instant; Delta() subtracts an earlier snapshot.
struct ObsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, double>> histograms;

  static ObsSnapshot Take();
  ObsSnapshot Delta(const ObsSnapshot& before) const;
  uint64_t Counter(const std::string& name) const;
  uint64_t HistCount(const std::string& name) const;
  double HistSum(const std::string& name) const;
  // Non-zero entries as one JSON object.
  std::string Json() const;
};

// --- Results ----------------------------------------------------------------

struct MetricValue {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, MetricValue>;

struct WorkloadOutput {
  MetricMap end_to_end;  // printed when --trace 0
  MetricMap per_layer;   // printed when --trace 1
  // Service / scoring switches of the run manifest (JSON object body).
  std::string switches = "{}";
};

// Prints a human-readable report line: "[perfbench] <workload> <text>".
void Report(const RunConfig& config, const std::string& text);
// Prints one named metric: "<name> = <value> <unit> (<basis>)".
void ReportMetric(const RunConfig& config, const std::string& name,
                  double value, const std::string& unit,
                  const std::string& basis);
// "name: median .. unit, p25 .., p75 .., p90 .., p99 .., n=N" summary.
std::string TimingLine(const std::string& name, const std::vector<double>& ms,
                       const std::string& unit);

// --- Shared inputs ----------------------------------------------------------

// splitmix64: derives independent sub-seeds from the run seed.
uint64_t Mix64(uint64_t x);
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed ^ Mix64(stream + 0x51ull));
}

// FNV-1a over a placement (and a running hash).
uint64_t HashPlacement(const sim::Placement& placement,
                       uint64_t hash = 1469598103934665603ull);
uint64_t HashDouble(double value, uint64_t hash);

// Trains an ensemble of `members` models for `metric` on `records`.
struct ModelSpec {
  sim::Metric metric = sim::Metric::kThroughput;
  int hidden_dim = 16;
  int members = 1;
  int epochs = 3;
};
std::unique_ptr<core::Ensemble> TrainEnsemble(
    const std::vector<wl::TraceRecord>& records,
    const ModelSpec& spec, int threads);

// Bitwise fingerprint of an ensemble: its predictions on the first records.
uint64_t EnsembleFingerprint(const core::Ensemble& ensemble,
                             const std::vector<wl::TraceRecord>& records);

}  // namespace perfbench

#endif  // COSTREAM_PERFBENCH_HARNESS_H_
