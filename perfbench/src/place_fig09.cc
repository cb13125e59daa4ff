// place_fig09: the paper's initial placement (Exp 2a, Fig. 9). Each call
// optimizes a fresh query on a fresh cluster across the three templates:
// PlacementOptimizer::Optimize with 50 candidates, a 3-member latency
// ensemble and the success/backpressure filters, in a closed loop with one
// caller and no ledger. GNN inference dominates; the models are trained in
// set-up. Decisions are compared with the noise-free fluid L_p of the
// Governor-style heuristic placement.
#include <algorithm>
#include <cmath>

#include "baselines/heuristic.h"
#include "placement/enumeration.h"
#include "placement/optimizer.h"
#include "sim/fluid_engine.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kQueriesPerTemplate = 60;
constexpr int kCandidates = 50;

struct Models {
  std::unique_ptr<core::Ensemble> latency;
  std::unique_ptr<core::Ensemble> success;
  std::unique_ptr<core::Ensemble> backpressure;
};

Models SetUpModels(uint64_t seed, int threads,
                   std::vector<wl::TraceRecord>* corpus) {
  wl::CorpusConfig cc;
  cc.num_queries = 400;
  cc.seed = SubSeed(seed, 30);
  cc.num_threads = threads;
  *corpus = wl::BuildCorpus(cc);
  Models m;
  ModelSpec spec;
  spec.hidden_dim = 16;
  spec.epochs = 5;
  spec.metric = sim::Metric::kProcessingLatency;
  spec.members = 3;
  m.latency = TrainEnsemble(*corpus, spec, threads);
  spec.members = 1;
  spec.metric = sim::Metric::kSuccess;
  m.success = TrainEnsemble(*corpus, spec, threads);
  spec.metric = sim::Metric::kBackpressure;
  m.backpressure = TrainEnsemble(*corpus, spec, threads);
  return m;
}

struct Call {
  dsps::QueryGraph query;
  sim::Cluster cluster;
  uint64_t enumeration_seed = 0;
  double heuristic_lp = 0.0;
};

}  // namespace

void RunPlaceFig09(const RunConfig& config, Checks& checks,
                   WorkloadOutput* out) {
  const ObsSnapshot before = ObsSnapshot::Take();

  std::vector<double> setup_s;
  Models models;
  std::vector<wl::TraceRecord> corpus;
  uint64_t fingerprint = 0;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const auto start = Clock::now();
    models = SetUpModels(config.seed, config.threads, &corpus);
    setup_s.push_back(SecondsSince(start));
    uint64_t fp = EnsembleFingerprint(*models.latency, corpus);
    fp ^= EnsembleFingerprint(*models.success, corpus) * 3;
    fp ^= EnsembleFingerprint(*models.backpressure, corpus) * 7;
    if (r == 0) fingerprint = fp;
    checks.Expect(fp == fingerprint, "set-up repetitions train equal models");
  }

  // Inputs: fresh query + fresh cluster per call, 60 per template.
  const wl::QueryGenerator generator{wl::GeneratorConfig()};
  costream::nn::Rng rng(SubSeed(config.seed, 31));
  sim::FluidConfig fluid;
  fluid.noise_sigma = 0.0;
  std::vector<Call> calls;
  for (auto kind : {wl::QueryTemplate::kLinear, wl::QueryTemplate::kTwoWayJoin,
                    wl::QueryTemplate::kThreeWayJoin}) {
    for (int i = 0; i < kQueriesPerTemplate; ++i) {
      Call call;
      call.query = generator.Generate(kind, rng);
      call.cluster = generator.GenerateCluster(rng);
      call.enumeration_seed = rng.Fork();
      const sim::Placement heuristic =
          costream::baselines::GovernorHeuristicPlacement(call.query,
                                                          call.cluster);
      call.heuristic_lp =
          sim::EvaluateFluid(call.query, call.cluster, heuristic, fluid)
              .metrics.processing_latency_ms;
      calls.push_back(std::move(call));
    }
  }
  // Interleave the templates so any prefix of the loop mixes all three.
  std::vector<size_t> order;
  for (int i = 0; i < kQueriesPerTemplate; ++i) {
    for (int t = 0; t < 3; ++t) order.push_back(t * kQueriesPerTemplate + i);
  }

  const costream::placement::PlacementOptimizer optimizer(
      models.latency.get(), models.success.get(), models.backpressure.get());
  auto optimizer_config = [&](const Call& call) {
    costream::placement::OptimizerConfig oc;
    oc.target = sim::Metric::kProcessingLatency;
    oc.enumeration.num_candidates = kCandidates;
    oc.enumeration.seed = call.enumeration_seed;
    oc.enumeration.num_threads = config.threads;
    oc.num_threads = config.threads;
    return oc;
  };
  out->switches = "{\"optimizer_candidates\": " + std::to_string(kCandidates) +
                  ", \"latency_members\": 3, \"success_filter\": true, "
                  "\"backpressure_filter\": true}";

  // Closed loop, one caller, passes over the calls until time is up. The
  // first pass warms up and checks the decisions; later passes are timed
  // and must reproduce them. Traced runs trace every other pass.
  SpanRecorder spans;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<uint64_t> decisions(calls.size(), 0);
  std::vector<double> speedups;
  std::vector<double> qerrors;
  const size_t min_passes = config.trace ? 5 : 3;
  const auto start = Clock::now();
  for (size_t k = 0; k < min_passes * order.size() ||
                     k % order.size() != 0 ||
                     SecondsSince(start) < config.seconds;
       ++k) {
    const size_t pass = k / order.size();
    const size_t idx = order[k % order.size()];
    const Call& call = calls[idx];
    const bool trace_this = config.trace && pass % 2 == 0 && pass > 0;
    const auto t0 = Clock::now();
    costream::placement::OptimizerResult result;
    {
      ScopedSpan span(trace_this ? &spans : nullptr,
                      "placement.PlacementOptimizer.Optimize",
                      static_cast<int64_t>(k));
      result = optimizer.Optimize(call.query, call.cluster,
                                  optimizer_config(call));
    }
    if (pass > 0) {
      (trace_this ? traced_ms : untraced_ms).push_back(SecondsSince(t0) * 1e3);
    }
    checks.Attempt();
    const uint64_t hash = HashDouble(result.predicted_cost,
                                     HashPlacement(result.best));
    if (pass == 0) {
      decisions[idx] = hash;
      checks.Expect(sim::ValidatePlacement(call.query, call.cluster,
                                           result.best)
                        .empty(),
                    "optimizer placement is valid");
      checks.Expect(costream::placement::CheckPlacementRules(
                        call.query, call.cluster, result.best)
                        .empty(),
                    "optimizer placement follows the enumeration rules");
      checks.Expect(std::isfinite(result.predicted_cost),
                    "finite predicted latency");
      const double lp =
          sim::EvaluateFluid(call.query, call.cluster, result.best, fluid)
              .metrics.processing_latency_ms;
      speedups.push_back(call.heuristic_lp / std::max(lp, 1e-3));
      qerrors.push_back(QError(lp, result.predicted_cost));
    } else {
      checks.Expect(hash == decisions[idx],
                    "repeated optimization reproduces the decision");
    }
  }
  const ObsSnapshot leg = ObsSnapshot::Take().Delta(before);

  const double speedup = GeoMean(speedups);
  const double qerror = Median(qerrors);
  double untraced_s = 0.0;
  for (double ms : untraced_ms) untraced_s += ms / 1e3;
  const std::string samples = std::to_string(untraced_ms.size());
  ReportMetric(config, "setup_s", Median(setup_s), "s", SetupBasis());
  ReportMetric(config, "optimize_p50_ms", Median(untraced_ms), "ms",
               "median, closed loop, n=" + samples);
  ReportMetric(config, "optimize_p99_ms", Quantile(untraced_ms, 0.99), "ms",
               "p99, n=" + samples);
  Report(config, TimingLine("optimize_ms", untraced_ms, "ms"));
  ReportMetric(config, "placement_speedup_gmean", speedup, "ratio",
               "heuristic L_p / chosen L_p, noise-free fluid, n=" +
                   std::to_string(speedups.size()));
  ReportMetric(config, "chosen_qerror_p50", qerror, "ratio",
               "predicted vs noise-free fluid L_p of the chosen placement");
  Report(config, "obs deltas: " + leg.Json());

  if (!config.trace) {
    SetEndToEnd(out, Median(setup_s), untraced_ms,
                static_cast<double>(untraced_ms.size()) / untraced_s);
    return;
  }

  const double base = Median(untraced_ms);
  out->per_layer["bench.tracing_overhead_pct"] = {
      base > 0.0 ? 100.0 * (Median(traced_ms) - base) / base : 0.0, "%"};
  AddLegCounters(leg, &out->per_layer);

  ProbeInputs probe;
  probe.cluster = calls[order[0]].cluster;
  for (size_t idx : order) {
    probe.queries.push_back(calls[idx].query);
    probe.optimize_clusters.push_back(calls[idx].cluster);
  }
  probe.ramp = 60;
  probe.target = models.latency.get();
  probe.metric = sim::Metric::kProcessingLatency;
  probe.success = models.success.get();
  probe.backpressure = models.backpressure.get();
  probe.service_config.target = sim::Metric::kProcessingLatency;
  probe.service_config.num_candidates = 8;
  probe.service_config.seed = SubSeed(config.seed, 32);
  RunLayerProbe(config, probe, checks, spans, &out->per_layer);
  FinishTrace(config, spans);
}

}  // namespace perfbench
