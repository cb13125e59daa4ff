// The four benchmark workloads and the outside-in layer probe of the traced
// run. Each workload builds its inputs from the run seed, sets up (five
// times, reporting the median), measures for the configured seconds, checks
// its outputs, and fills the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#ifndef COSTREAM_PERFBENCH_WORKLOADS_H_
#define COSTREAM_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "core/ensemble.h"
#include "dsps/query_graph.h"
#include "harness.h"
#include "service/placement_service.h"
#include "sim/hardware.h"
#include "workload/generator.h"

namespace perfbench {

namespace dsps = costream::dsps;
namespace service = costream::service;

// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 5;

void RunAdmitChurn(const RunConfig& config, Checks& checks,
                   WorkloadOutput* out);
void RunConvergeBurst(const RunConfig& config, Checks& checks,
                      WorkloadOutput* out);
void RunPlaceFig09(const RunConfig& config, Checks& checks,
                   WorkloadOutput* out);
void RunLabelTrain(const RunConfig& config, Checks& checks,
                   WorkloadOutput* out);

// The end-to-end metrics every workload reports, each bound to the
// workload's own unit of work (see perfbench/README.md):
//   setup_s     median of the set-up repetitions
//   op_p50_ms   median time of the workload's timed operations
//   op_p90_ms   their 90th percentile
//   work_per_s  work rate of the timed operations
void SetEndToEnd(WorkloadOutput* out, double setup_s,
                 const std::vector<double>& op_ms, double work_per_s);

// "median, n=5" basis of the setup_s report line.
std::string SetupBasis();

// bench_service's light tenant mix with every event rate scaled.
wl::GeneratorConfig TenantWorkload(double rate_scale);

// sim::ValidatePlacement on every live tenant plus the ledger invariants.
void CheckDeployment(const service::PlacementService& svc,
                     const std::string& phase, Checks& checks);

// Flags of the service configuration as a JSON object (run manifest).
std::string ServiceSwitchesJson(const service::ServiceConfig& config);

// --- Traced run ----------------------------------------------------------

// Inputs of the layer probe, all taken from the workload's own inputs.
struct ProbeInputs {
  // Cluster of the probe service and of the placement triples.
  sim::Cluster cluster;
  // Admission stream: the first `ramp` queries are admitted back to back,
  // every later one first retires a live tenant (churn).
  std::vector<dsps::QueryGraph> queries;
  int ramp = 0;
  // Regression ensemble the service scores with, and its metric.
  const core::Ensemble* target = nullptr;
  sim::Metric metric = sim::Metric::kThroughput;
  const core::Ensemble* success = nullptr;
  const core::Ensemble* backpressure = nullptr;
  // Per-query clusters for the optimizer replay (empty: `cluster`).
  std::vector<sim::Cluster> optimize_clusters;
  service::ServiceConfig service_config;
};

// Times the public functions of every module on the probe inputs and fills
// the probe-sourced per-layer metrics: admission stages (replayed with
// spans that share the admission's id), 1-thread vs N-thread service and
// optimizer legs, fluid, DES, featurization, evaluation and the trace
// writer/reader round trip.
void RunLayerProbe(const RunConfig& config, const ProbeInputs& inputs,
                   Checks& checks, SpanRecorder& spans, MetricMap* per_layer);

// Fills the per-layer metrics derived from the obs deltas of the workload
// leg (set-up plus measured phase, before the probe ran).
void AddLegCounters(const ObsSnapshot& leg, MetricMap* per_layer);

// Prints the workload's span summary and writes the span dump.
void FinishTrace(const RunConfig& config, const SpanRecorder& spans);

}  // namespace perfbench

#endif  // COSTREAM_PERFBENCH_WORKLOADS_H_
