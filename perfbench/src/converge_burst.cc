// converge_burst: bursty overload on a small heterogeneous cluster with edge
// boxes. Each burst of heavy tenants enters through AdmitAsync +
// DrainAdmissions (one shared snapshot, so the batch piles onto the same
// nodes), Converge() rips up and re-places until no node is overflowed, and
// then part of the population departs. Big-window tenants let the interval
// pre-pass prove candidates crash. After the last burst the settled
// deployment is validated against DES. This is the only workload that
// exercises rip-ups, the candidate cache, pruning and DES.
//
// One episode (fixed bursts, fresh service) is deterministic in the seed;
// episodes repeat until the measuring time is used, and every repetition
// must reproduce the first one's decisions. The first episode warms up and
// is not timed.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "placement/scorer.h"
#include "sim/des.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kBursts = 64;
constexpr int kBurstSize = 24;
// Most of a burst departs before the next one arrives, so bursts are close
// to independent draws and a run's settle times average over many of them.
constexpr double kDepartFraction = 0.9;
// Tenant event rates relative to the admit_churn tenant mix.
constexpr double kRateScale = 64.0;
// Rip-up iteration cap. At these rates a burst's demand usually exceeds
// what the cluster can carry, so most bursts run all four rip-up rounds
// (sustained overload); the cap bounds what such a burst costs.
constexpr int kMaxIterations = 4;
constexpr int kValidateQueries = 24;
constexpr double kDesSeconds = 0.5;

// Four edge boxes, four fog nodes, four cloud servers.
sim::Cluster BurstCluster() {
  sim::Cluster cluster;
  for (int i = 0; i < 4; ++i) {
    cluster.nodes.push_back({100.0 + 25.0 * i, 256.0, 100.0, 25.0});
  }
  for (int i = 0; i < 4; ++i) {
    cluster.nodes.push_back({150.0 + 25.0 * i, 8192.0, 1000.0, 5.0});
  }
  for (int i = 0; i < 4; ++i) {
    cluster.nodes.push_back({300.0 + 50.0 * i, 32768.0, 10000.0, 1.0});
  }
  return cluster;
}

// A 1e5-3e5-tuple count window: hundreds of MB of proven window state,
// fatal on the 256 MB edge boxes, so the interval pre-pass proves every
// candidate that puts the window there crashes.
dsps::QueryGraph BigWindowQuery(double rate, double window) {
  dsps::QueryGraph query;
  dsps::OperatorDescriptor source;
  source.type = dsps::OperatorType::kSource;
  source.input_event_rate = rate;
  source.tuple_width_in = 2.0;
  source.tuple_width_out = 2.0;
  source.selectivity = 1.0;
  source.tuple_data_types = {dsps::DataType::kInt, dsps::DataType::kInt};
  query.AddOperator(source);
  dsps::OperatorDescriptor op;
  op.type = dsps::OperatorType::kWindow;
  op.tuple_width_in = 2.0;
  op.tuple_width_out = 2.0;
  op.selectivity = 1.0;
  op.window = {dsps::WindowType::kTumbling, dsps::WindowPolicy::kCountBased,
               window, window};
  query.AddOperator(op);
  dsps::OperatorDescriptor sink;
  sink.type = dsps::OperatorType::kSink;
  sink.tuple_width_in = 2.0;
  sink.tuple_width_out = 2.0;
  sink.selectivity = 1.0;
  query.AddOperator(sink);
  query.AddEdge(0, 1);
  query.AddEdge(1, 2);
  return query;
}

struct Episode {
  std::vector<double> settle_ms;
  std::vector<int> iterations;  // Converge() iterations per burst
  int converged = 0;
  int placements = 0;  // admissions + rip-ups
  double validate_s = 0.0;
  double des_tuples_per_s = 0.0;
  double qerror_p50 = 0.0;
  uint64_t decisions = 0;  // hash of every placement decision
};

struct Inputs {
  std::vector<std::vector<dsps::QueryGraph>> bursts;
  std::vector<std::vector<int>> departures;  // victim picks per burst
};

Inputs MakeInputs(uint64_t seed) {
  const wl::QueryGenerator generator(TenantWorkload(kRateScale));
  costream::nn::Rng rng(SubSeed(seed, 20));
  Inputs in;
  for (int b = 0; b < kBursts; ++b) {
    std::vector<dsps::QueryGraph> burst;
    for (int i = 0; i < kBurstSize; ++i) {
      if (i % 4 == 0) {
        burst.push_back(
            BigWindowQuery(rng.Uniform(100.0, 400.0), rng.Uniform(1e5, 3e5)));
      } else {
        const auto t = static_cast<wl::QueryTemplate>(rng.Int(0, 2));
        burst.push_back(generator.Generate(t, rng));
      }
    }
    in.bursts.push_back(std::move(burst));
    std::vector<int> picks;
    for (int i = 0; i < kBurstSize * 4; ++i) picks.push_back(rng.Int(0, 1 << 30));
    in.departures.push_back(std::move(picks));
  }
  return in;
}

// Per-query prediction vs DES on the settled deployment, over the same
// stride of live ids MeasureAggregateThroughput samples. Returns the median
// q-error; `predicted_sum` must equal the aggregate's prediction.
double SettledQError(const service::PlacementService& svc,
                     const core::Ensemble& target, uint64_t seed,
                     double* predicted_sum, Checks& checks) {
  const std::vector<int64_t> ids = svc.QueryIds();
  const size_t take = std::min<size_t>(ids.size(), kValidateQueries);
  std::vector<double> qerrors;
  *predicted_sum = 0.0;
  for (size_t k = 0; k < take; ++k) {
    const int64_t id = ids[k * ids.size() / take];
    const sim::Cluster view = svc.ledger().LoadedViewExcluding(id);
    const costream::placement::PlacementScorer scorer(
        svc.QueryOf(id), view, &target, nullptr, nullptr);
    auto ws = scorer.MakeWorkspace();
    const double predicted =
        std::max(scorer.PredictTarget(ws, svc.PlacementOf(id)), 0.0);
    *predicted_sum += predicted;
    sim::DesConfig dc;
    dc.duration_s = kDesSeconds;
    dc.seed = SubSeed(seed, 1000 + static_cast<uint64_t>(id));
    const sim::DesReport des =
        sim::RunDes(svc.QueryOf(id), view, svc.PlacementOf(id), dc);
    checks.Expect(std::isfinite(predicted), "finite settled prediction");
    qerrors.push_back(QError(des.metrics.throughput, predicted));
  }
  return Median(qerrors);
}

Episode RunEpisode(const RunConfig& config, const Inputs& in,
                   const core::Ensemble& target,
                   const service::ServiceConfig& sc, bool with_qerror,
                   Checks& checks, SpanRecorder* spans, int64_t episode) {
  Episode ep;
  service::PlacementService svc(BurstCluster(), &target, nullptr, nullptr, sc);
  ep.decisions = 1469598103934665603ull;
  for (int b = 0; b < kBursts; ++b) {
    const int64_t request = episode * kBursts + b;
    for (const auto& q : in.bursts[b]) svc.AdmitAsync(q);
    const auto start = Clock::now();
    std::vector<service::AdmitResult> admitted;
    {
      ScopedSpan span(spans, "service.DrainAdmissions", request);
      admitted = svc.DrainAdmissions();
    }
    service::ConvergeResult cr;
    {
      ScopedSpan span(spans, "service.Converge", request);
      cr = svc.Converge();
    }
    const double settle = SecondsSince(start);
    ep.settle_ms.push_back(settle * 1e3);
    ep.converged += cr.converged ? 1 : 0;
    ep.iterations.push_back(cr.iterations);
    ep.placements += static_cast<int>(admitted.size()) + cr.ripups;
    checks.Attempt();
    checks.Expect(admitted.size() == in.bursts[b].size(),
                  "every queued tenant admitted");
    for (const auto& r : admitted) {
      checks.Expect(std::isfinite(r.predicted) && std::isfinite(r.penalized),
                    "finite burst prediction");
    }
    {
      ScopedSpan span(spans, "service.CheckDeployment", request);
      CheckDeployment(svc, "burst", checks);
    }
    for (int64_t id : svc.QueryIds()) {
      ep.decisions = HashPlacement(svc.PlacementOf(id), ep.decisions);
    }
    ep.decisions = HashDouble(cr.ripups, ep.decisions);
    // Departures between bursts; the last burst's deployment stays for the
    // DES validation.
    if (b + 1 == kBursts) break;
    std::vector<int64_t> ids = svc.QueryIds();
    const int departing =
        static_cast<int>(kDepartFraction * static_cast<double>(ids.size()));
    ScopedSpan span(spans, "service.Retire", request);
    for (int k = 0; k < departing; ++k) {
      const size_t pick = static_cast<size_t>(in.departures[b][k]) % ids.size();
      checks.Expect(svc.Retire(ids[pick]), "departure of a live tenant");
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  const auto start = Clock::now();
  service::AggregateThroughput agg;
  {
    ScopedSpan span(spans, "service.MeasureAggregateThroughput", episode);
    agg = svc.MeasureAggregateThroughput(kValidateQueries, kDesSeconds);
  }
  ep.validate_s = SecondsSince(start);
  ep.des_tuples_per_s = agg.des;
  checks.Expect(agg.queries > 0 && std::isfinite(agg.des) &&
                    std::isfinite(agg.predicted),
                "aggregate DES validation ran");
  if (with_qerror) {
    double predicted_sum = 0.0;
    ep.qerror_p50 =
        SettledQError(svc, target, config.seed, &predicted_sum, checks);
    checks.Expect(predicted_sum == agg.predicted,
                  "per-query predictions sum to the aggregate prediction");
  }
  return ep;
}

}  // namespace

void RunConvergeBurst(const RunConfig& config, Checks& checks,
                      WorkloadOutput* out) {
  const ObsSnapshot before = ObsSnapshot::Take();

  std::vector<double> setup_s;
  std::unique_ptr<core::Ensemble> target;
  uint64_t fingerprint = 0;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const auto start = Clock::now();
    wl::CorpusConfig cc;
    cc.num_queries = 400;
    cc.seed = SubSeed(config.seed, 21);
    cc.duration_s = 30.0;
    cc.num_threads = config.threads;
    const auto corpus = wl::BuildCorpus(cc);
    ModelSpec spec;
    spec.metric = sim::Metric::kThroughput;
    spec.epochs = 5;
    target = TrainEnsemble(corpus, spec, config.threads);
    setup_s.push_back(SecondsSince(start));
    const uint64_t fp = EnsembleFingerprint(*target, corpus);
    if (r == 0) fingerprint = fp;
    checks.Expect(fp == fingerprint, "set-up repetitions train equal models");
  }

  const Inputs in = MakeInputs(config.seed);
  service::ServiceConfig sc;
  sc.target = sim::Metric::kThroughput;
  sc.num_candidates = 8;
  sc.max_iterations = kMaxIterations;
  sc.seed = SubSeed(config.seed, 22);
  sc.num_threads = config.threads;
  out->switches = ServiceSwitchesJson(sc);

  // Episodes until the measuring time is used: a warm-up episode, then at
  // least two timed untraced ones (which check that decisions replay).
  // Traced runs trace every other timed episode.
  SpanRecorder spans;
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  const size_t min_episodes = config.trace ? 5 : 3;
  const auto start = Clock::now();
  Episode first;
  for (int64_t index = 0;
       index < static_cast<int64_t>(min_episodes) ||
       SecondsSince(start) < config.seconds;
       ++index) {
    const bool trace_this = config.trace && index % 2 == 0 && index > 0;
    Episode ep = RunEpisode(config, in, *target, sc, index == 0, checks,
                            trace_this ? &spans : nullptr, index);
    if (index == 0) {
      first = std::move(ep);
      continue;
    }
    checks.Expect(ep.decisions == first.decisions &&
                      ep.des_tuples_per_s == first.des_tuples_per_s,
                  "episode replays the first episode's decisions");
    (trace_this ? traced : untraced).push_back(std::move(ep));
  }
  const ObsSnapshot leg = ObsSnapshot::Take().Delta(before);

  std::vector<double> settle_ms;
  std::vector<double> validate_s;
  double settle_s = 0.0;
  int placements = 0;
  for (const Episode& ep : untraced) {
    settle_ms.insert(settle_ms.end(), ep.settle_ms.begin(), ep.settle_ms.end());
    for (double ms : ep.settle_ms) settle_s += ms / 1e3;
    validate_s.push_back(ep.validate_s);
    placements += ep.placements;
  }
  const double placements_per_s = placements / settle_s;
  const double converged_frac =
      static_cast<double>(first.converged) / static_cast<double>(kBursts);
  const std::string samples = std::to_string(settle_ms.size());
  ReportMetric(config, "setup_s", Median(setup_s), "s", SetupBasis());
  ReportMetric(config, "settle_p50_ms", Median(settle_ms), "ms",
               "median, drain start to Converge() return, n=" + samples);
  ReportMetric(config, "settle_p90_ms", Quantile(settle_ms, 0.9), "ms",
               "p90, n=" + samples);
  Report(config, TimingLine("settle_ms", settle_ms, "ms"));
  ReportMetric(config, "converged_frac", converged_frac, "ratio",
               std::to_string(first.converged) + "/" +
                   std::to_string(kBursts) + " bursts");
  std::vector<int> histogram(kMaxIterations + 1, 0);
  for (int it : first.iterations) ++histogram[std::min(it, kMaxIterations)];
  std::string hist;
  for (size_t i = 0; i < histogram.size(); ++i) {
    char cell[32];
    std::snprintf(cell, sizeof(cell), " %zu:%d", i, histogram[i]);
    hist += cell;
  }
  Report(config, "bursts by Converge() iterations:" + hist);
  ReportMetric(config, "des_tuples_per_s", first.des_tuples_per_s,
               "tuples/s",
               "settled deployment, " + std::to_string(kValidateQueries) +
                   " queries, MeasureAggregateThroughput");
  ReportMetric(config, "model_qerror_p50", first.qerror_p50, "ratio",
               "per-query prediction vs DES, " +
                   std::to_string(kValidateQueries) + " queries");
  ReportMetric(config, "validate_s", Median(validate_s), "s",
               "median, n=" + std::to_string(validate_s.size()));
  ReportMetric(config, "placements_per_settle_s", placements_per_s, "1/s",
               std::to_string(first.placements) +
                   " admissions + rip-ups per episode over its settle time");
  Report(config, "episodes: 1 warm-up, " + std::to_string(untraced.size()) +
                     " timed untraced, " + std::to_string(traced.size()) +
                     " traced");
  Report(config, "obs deltas: " + leg.Json());

  if (!config.trace) {
    SetEndToEnd(out, Median(setup_s), settle_ms, placements_per_s);
    return;
  }

  std::vector<double> traced_ms;
  for (const Episode& ep : traced) {
    traced_ms.insert(traced_ms.end(), ep.settle_ms.begin(), ep.settle_ms.end());
  }
  const double base = Median(settle_ms);
  out->per_layer["bench.tracing_overhead_pct"] = {
      base > 0.0 ? 100.0 * (Median(traced_ms) - base) / base : 0.0, "%"};
  AddLegCounters(leg, &out->per_layer);
  ProbeInputs probe;
  probe.cluster = BurstCluster();
  for (int b = 0; b < 3; ++b) {
    probe.queries.insert(probe.queries.end(), in.bursts[b].begin(),
                         in.bursts[b].end());
  }
  probe.ramp = kBurstSize * 2;
  probe.target = target.get();
  probe.metric = sim::Metric::kThroughput;
  probe.service_config = sc;
  RunLayerProbe(config, probe, checks, spans, &out->per_layer);
  FinishTrace(config, spans);
}

}  // namespace perfbench
