// admit_churn: the steady-state multi-tenant service. A deployment ramps its
// own 1000 tenants (bench_service's tenant mix) into a fresh service on the
// 24-node fog cluster with back-to-back Admit calls (closed loop, a bulk
// deploy), then churns closed-loop: each event replaces one random tenant
// (Retire, then Admit). Deployments are replayed in passes; decisions depend
// only on the admission history, so every pass must make the same ones. A
// final open-loop Poisson churn segment reports the latency from the due
// time.
// No rip-ups, cache hits or pruning happen here, so cache, Converge() and
// pruning changes should leave this workload unchanged.
#include <algorithm>
#include <cmath>

#include "placement/scorer.h"
#include "sim/fluid_engine.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kTenants = 1000;
// Closed-loop churn events per deployment pass.
constexpr int kChurnEvents = 500;
// Independent deployments (own tenants, own churn), so a run's figures
// average over two tenant mixes.
constexpr int kDeployments = 2;
// Offered rate (arrivals/s) and length of the open-loop segment. The
// service admits 1000-1800 tenants/s closed-loop on a 4-vCPU x86 VM; a
// tenth of that keeps the queue short.
constexpr double kOfferedRate = 150.0;
constexpr double kOpenLoopSeconds = 2.0;
constexpr int kQErrorSample = 200;

// bench_service's fog cluster: CPU is the contended resource, RAM tiers are
// large enough for ~1000 light tenants.
sim::Cluster ServiceCluster() {
  sim::Cluster cluster;
  for (int i = 0; i < 24; ++i) {
    switch (i % 3) {
      case 0:
        cluster.nodes.push_back({400.0, 98304.0, 1000.0, 10.0});
        break;
      case 1:
        cluster.nodes.push_back({600.0, 147456.0, 2000.0, 5.0});
        break;
      default:
        cluster.nodes.push_back({800.0, 196608.0, 10000.0, 1.0});
        break;
    }
  }
  return cluster;
}

std::unique_ptr<core::Ensemble> SetUpModel(uint64_t seed, int threads,
                                           std::vector<wl::TraceRecord>* corpus) {
  wl::CorpusConfig cc;
  cc.num_queries = 400;
  cc.seed = SubSeed(seed, 1);
  cc.duration_s = 30.0;
  cc.num_threads = threads;
  *corpus = wl::BuildCorpus(cc);
  ModelSpec spec;
  spec.metric = sim::Metric::kThroughput;
  spec.hidden_dim = 16;
  spec.epochs = 5;
  return TrainEnsemble(*corpus, spec, threads);
}

// Busy-waits until `due`. Sleeping would let the CPU idle between
// arrivals, and the wake-up latency after an idle gap varies with the host's
// load; it would be counted as admission latency.
void WaitUntil(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

struct ChurnStats {
  std::vector<double> latency_ms;  // due -> Admit returned
  std::vector<double> late_ms;     // due -> event started
};

// One deployment's inputs: the tenants of its ramp, its closed-loop churn
// (arriving query, index of the departing tenant) and the Poisson schedule
// of the open-loop segment (arrival times, queries, victims).
struct Deployment {
  std::vector<dsps::QueryGraph> tenants;
  std::vector<dsps::QueryGraph> churn;
  std::vector<int> victims;
  std::vector<double> arrival_s;
  std::vector<dsps::QueryGraph> open_churn;
  std::vector<int> open_victims;
};

Deployment MakeDeployment(uint64_t seed, int index) {
  const wl::QueryGenerator generator(TenantWorkload(1.0));
  costream::nn::Rng rng(SubSeed(seed, 10 + static_cast<uint64_t>(index)));
  auto random_query = [&] {
    const auto t = static_cast<wl::QueryTemplate>(rng.Int(0, 2));
    return generator.Generate(t, rng);
  };
  Deployment d;
  for (int i = 0; i < kTenants; ++i) d.tenants.push_back(random_query());
  for (int i = 0; i < kChurnEvents; ++i) {
    d.churn.push_back(random_query());
    d.victims.push_back(rng.Int(0, kTenants - 1));
  }
  for (double t = rng.Uniform(0.0, 1.0) / kOfferedRate; t < kOpenLoopSeconds;) {
    d.arrival_s.push_back(t);
    t += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / kOfferedRate;
  }
  for (size_t i = 0; i < d.arrival_s.size(); ++i) {
    d.open_churn.push_back(random_query());
    d.open_victims.push_back(rng.Int(0, kTenants - 1));
  }
  return d;
}

// Times (ms) of the ramp admissions and of the churn events (Retire +
// Admit) of the timed passes, and the decision hash of each deployment's
// first pass.
struct PassTimes {
  std::vector<double> ramp;
  std::vector<double> churn;
  std::vector<double> churn_traced;
  std::vector<uint64_t> decisions;
};

// One pass: a fresh service ramps deployment `d`'s tenants and runs its
// closed-loop churn. The first pass of a deployment warms up, checks the
// deployment and records its decisions; later passes are timed. Returns the
// service for the open-loop segment.
std::unique_ptr<service::PlacementService> DeploymentPass(
    const Deployment& dep, size_t d, const core::Ensemble& target,
    const service::ServiceConfig& sc, bool first_pass, Checks& checks,
    SpanRecorder* spans, PassTimes* times, std::vector<int64_t>* live) {
  auto svc = std::make_unique<service::PlacementService>(
      ServiceCluster(), &target, nullptr, nullptr, sc);
  live->clear();
  uint64_t decisions = 1469598103934665603ull;
  for (int i = 0; i < kTenants; ++i) {
    const auto t0 = Clock::now();
    const service::AdmitResult a = svc->Admit(dep.tenants[i]);
    if (!first_pass) times->ramp.push_back(SecondsSince(t0) * 1e3);
    live->push_back(a.id);
    decisions = HashPlacement(a.placement, decisions);
    checks.Attempt();
    checks.Expect(std::isfinite(a.predicted), "finite ramp prediction");
  }
  if (first_pass) CheckDeployment(*svc, "ramp", checks);
  std::vector<double>& churn =
      spans != nullptr ? times->churn_traced : times->churn;
  for (int i = 0; i < kChurnEvents; ++i) {
    const size_t pick = static_cast<size_t>(dep.victims[i]) % live->size();
    const auto t0 = Clock::now();
    bool retired = false;
    {
      ScopedSpan span(spans, "service.Retire", i);
      retired = svc->Retire((*live)[pick]);
    }
    service::AdmitResult result;
    {
      ScopedSpan span(spans, "service.Admit", i);
      result = svc->Admit(dep.churn[i]);
    }
    if (!first_pass) churn.push_back(SecondsSince(t0) * 1e3);
    (*live)[pick] = result.id;
    decisions = HashPlacement(result.placement, decisions);
    checks.Attempt();
    checks.Expect(retired, "churn retire of a live tenant");
    checks.Expect(std::isfinite(result.predicted) &&
                      std::isfinite(result.penalized),
                  "finite admission prediction");
  }
  if (first_pass) {
    CheckDeployment(*svc, "churn", checks);
    times->decisions.resize(d + 1);
    times->decisions[d] = decisions;
  }
  checks.Expect(decisions == times->decisions[d],
                "a replayed deployment makes the first pass's decisions");
  checks.Expect(svc->live_queries() == kTenants, "live tenant count stays");
  return svc;
}

// Open-loop churn over the deployment's Poisson schedule, continuing on
// the service of a finished pass. Latency counts from the due time.
void OpenLoopChurn(service::PlacementService& svc, std::vector<int64_t>& live,
                   const Deployment& dep, Checks& checks, ChurnStats* stats) {
  const std::vector<double>& arrival_s = dep.arrival_s;
  const auto origin = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < arrival_s.size(); ++i) {
    const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(arrival_s[i]));
    WaitUntil(due);
    const auto start = Clock::now();
    const size_t pick = static_cast<size_t>(dep.open_victims[i]) % live.size();
    const bool retired = svc.Retire(live[pick]);
    const service::AdmitResult result = svc.Admit(dep.open_churn[i]);
    const auto done = Clock::now();
    live[pick] = result.id;
    checks.Attempt();
    checks.Expect(retired, "open-loop retire of a live tenant");
    checks.Expect(std::isfinite(result.predicted) &&
                      std::isfinite(result.penalized),
                  "finite admission prediction");
    stats->latency_ms.push_back(SecondsBetween(due, done) * 1e3);
    stats->late_ms.push_back(SecondsBetween(due, start) * 1e3);
  }
  CheckDeployment(svc, "open-loop churn", checks);
  checks.Expect(svc.live_queries() == kTenants, "live tenant count stays");
}

// Per-tenant q-error of the learned prediction against the noise-free fluid
// throughput, both on the cluster derated by every other tenant.
double TenantQError(const service::PlacementService& svc,
                    const core::Ensemble& target, Checks& checks) {
  const std::vector<int64_t> ids = svc.QueryIds();
  const size_t take = std::min<size_t>(ids.size(), kQErrorSample);
  std::vector<double> qerrors;
  sim::FluidConfig fluid;
  fluid.duration_s = 30.0;
  fluid.noise_sigma = 0.0;
  for (size_t k = 0; k < take; ++k) {
    const int64_t id = ids[k * ids.size() / take];
    const sim::Cluster view = svc.ledger().LoadedViewExcluding(id);
    const costream::placement::PlacementScorer scorer(
        svc.QueryOf(id), view, &target, nullptr, nullptr);
    auto ws = scorer.MakeWorkspace();
    const double predicted = scorer.PredictTarget(ws, svc.PlacementOf(id));
    const double actual =
        sim::EvaluateFluid(svc.QueryOf(id), view, svc.PlacementOf(id), fluid)
            .metrics.throughput;
    checks.Expect(std::isfinite(predicted), "finite tenant prediction");
    qerrors.push_back(QError(actual, predicted));
  }
  return Median(qerrors);
}

}  // namespace

void RunAdmitChurn(const RunConfig& config, Checks& checks,
                   WorkloadOutput* out) {
  const ObsSnapshot before = ObsSnapshot::Take();

  // --- Set-up: label a corpus and train the throughput model. -------------
  std::vector<double> setup_s;
  std::unique_ptr<core::Ensemble> target;
  std::vector<wl::TraceRecord> corpus;
  uint64_t fingerprint = 0;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    const auto start = Clock::now();
    target = SetUpModel(config.seed, config.threads, &corpus);
    setup_s.push_back(SecondsSince(start));
    const uint64_t fp = EnsembleFingerprint(*target, corpus);
    if (r == 0) fingerprint = fp;
    checks.Expect(fp == fingerprint, "set-up repetitions train equal models");
  }

  service::ServiceConfig sc;
  sc.target = sim::Metric::kThroughput;
  sc.num_candidates = 8;
  sc.seed = SubSeed(config.seed, 3);
  sc.num_threads = config.threads;
  out->switches = ServiceSwitchesJson(sc);

  // --- Passes: deployments in turn, until time is up and each has had at
  // least two timed untraced passes after its warm-up pass. Traced runs
  // trace every other timed pass of a deployment; the difference of the
  // churn medians is the tracing overhead. ---------------------------------
  std::vector<Deployment> deployments;
  PassTimes times;
  for (int d = 0; d < kDeployments; ++d) {
    deployments.push_back(MakeDeployment(config.seed, d));
  }
  SpanRecorder spans;
  std::unique_ptr<service::PlacementService> svc;
  std::vector<int64_t> live;
  const int min_passes = kDeployments * (config.trace ? 5 : 3);
  const auto start = Clock::now();
  for (int p = 0; p < min_passes || p % kDeployments != 0 ||
                  SecondsSince(start) < config.seconds;
       ++p) {
    const int d = p % kDeployments;
    const int round = p / kDeployments;
    const bool trace_this = config.trace && round % 2 == 0 && round > 0;
    svc = DeploymentPass(deployments[d], d, *target, sc, round == 0, checks,
                         trace_this ? &spans : nullptr, &times, &live);
  }

  // Open-loop segment on the last pass's service (report only).
  ChurnStats open_loop;
  OpenLoopChurn(*svc, live, deployments.back(), checks, &open_loop);
  if (!config.trace) {
    ReportMetric(config, "tenant_qerror_p50",
                 TenantQError(*svc, *target, checks), "ratio",
                 "prediction vs noise-free fluid on the loaded view, " +
                     std::to_string(kQErrorSample) + " tenants");
  }

  double ramp_s = 0.0;
  for (double ms : times.ramp) ramp_s += ms / 1e3;
  const double deploy_rate = static_cast<double>(times.ramp.size()) / ramp_s;

  const ObsSnapshot leg = ObsSnapshot::Take().Delta(before);
  const std::string samples = std::to_string(times.churn.size());
  const std::string open_n = std::to_string(open_loop.latency_ms.size());
  ReportMetric(config, "setup_s", Median(setup_s), "s", SetupBasis());
  ReportMetric(config, "deploy_admits_per_s", deploy_rate, "1/s",
               std::to_string(times.ramp.size()) +
                   " timed ramp admissions, closed loop, ramps to " +
                   std::to_string(kTenants) + " tenants");
  ReportMetric(config, "churn_p50_ms", Median(times.churn), "ms",
               "median of Retire + Admit, closed loop, n=" + samples);
  ReportMetric(config, "churn_p90_ms", Quantile(times.churn, 0.9), "ms",
               "p90, n=" + samples);
  Report(config, TimingLine("churn_ms", times.churn, "ms"));
  ReportMetric(config, "admit_p50_ms", Median(open_loop.latency_ms), "ms",
               "open loop at " +
                   std::to_string(static_cast<int>(kOfferedRate)) +
                   " arrivals/s, median from due time, n=" + open_n);
  ReportMetric(config, "admit_p99_ms", Quantile(open_loop.latency_ms, 0.99),
               "ms", "open loop, p99 from due time, n=" + open_n);
  ReportMetric(config, "bench.generator_late_ms.p99",
               Quantile(open_loop.late_ms, 0.99), "ms",
               "open loop, due time to event start, n=" + open_n);
  ReportMetric(config, "live_tenants_at_end", svc->live_queries(), "count",
               "checked after every pass and the open-loop segment");
  Report(config, "obs deltas: " + leg.Json());

  if (!config.trace) {
    SetEndToEnd(out, Median(setup_s), times.churn, deploy_rate);
    return;
  }

  Report(config, TimingLine("churn_ms (traced passes)", times.churn_traced,
                            "ms"));
  const double base = Median(times.churn);
  out->per_layer["bench.tracing_overhead_pct"] = {
      base > 0.0 ? 100.0 * (Median(times.churn_traced) - base) / base : 0.0,
      "%"};
  AddLegCounters(leg, &out->per_layer);

  ProbeInputs probe;
  probe.cluster = ServiceCluster();
  const Deployment& first = deployments.front();
  probe.queries = first.tenants;
  probe.queries.insert(probe.queries.end(), first.churn.begin(),
                       first.churn.begin() +
                           std::min<size_t>(first.churn.size(), 200));
  probe.ramp = kTenants;
  probe.target = target.get();
  probe.metric = sim::Metric::kThroughput;
  probe.service_config = sc;
  RunLayerProbe(config, probe, checks, spans, &out->per_layer);
  FinishTrace(config, spans);
}

}  // namespace perfbench
