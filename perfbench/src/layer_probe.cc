// Traced run: per-layer metrics from the outside in. Counts and ratios come
// from obs deltas over the workload leg; times come from spans the probe
// opens around calls into each module's public functions, on inputs taken
// from the workload itself.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "placement/enumeration.h"
#include "placement/optimizer.h"
#include "placement/scorer.h"
#include "sim/des.h"
#include "sim/fluid_engine.h"
#include "verify/interval_analysis.h"
#include "workload/trace_io.h"
#include "workload/trace_reader.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace placement = costream::placement;
namespace verify = costream::verify;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Us(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e6;
}

// Admission stages replayed through their public functions on the inputs
// the next Admit sees. Spans share the admission's request id.
struct StageTimes {
  std::vector<double> loaded_view;
  std::vector<double> enumerate;
  std::vector<double> interval;
  std::vector<double> score;
  std::vector<double> score_per_candidate;
  std::vector<double> background;
  std::vector<double> penalty;
  std::vector<double> admit;  // the sampled admissions themselves
};

void ReplayAdmission(const service::PlacementService& svc,
                     const dsps::QueryGraph& query, const ProbeInputs& in,
                     uint64_t enumeration_seed, int threads, int64_t request,
                     SpanRecorder& spans, StageTimes* st) {
  const int root = spans.Begin("admission.replay", request);
  auto t0 = Clock::now();
  sim::Cluster view;
  {
    ScopedSpan s(&spans, "service.ledger.LoadedView", request, root);
    view = svc.ledger().LoadedView();
  }
  auto t1 = Clock::now();
  st->loaded_view.push_back(Us(t0, t1));

  placement::EnumerationConfig ec;
  ec.num_candidates = svc.config().num_candidates;
  ec.num_bins = svc.config().num_bins;
  ec.seed = enumeration_seed;
  ec.num_threads = threads;
  std::vector<sim::Placement> candidates;
  {
    ScopedSpan s(&spans, "placement.EnumerateCandidates", request, root);
    candidates = placement::EnumerateCandidates(query, view, ec);
  }
  t0 = Clock::now();
  st->enumerate.push_back(Us(t1, t0));

  {
    ScopedSpan s(&spans, "verify.IntervalPrepass", request, root);
    const verify::QueryIntervalSummary summary = verify::AnalyzeQueryIntervals(
        query, verify::IntervalOptions{}, nullptr);
    for (const auto& c : candidates) {
      verify::AnalyzePlacementIntervals(query, svc.ledger().cluster(), c,
                                        summary, nullptr, nullptr);
    }
  }
  t1 = Clock::now();
  st->interval.push_back(Us(t0, t1));

  {
    ScopedSpan s(&spans, "placement.PlacementScorer.Score", request, root);
    const placement::PlacementScorer scorer(query, view, in.target, in.success,
                                            in.backpressure);
    auto ws = scorer.MakeWorkspace();
    for (const auto& c : candidates) scorer.Score(ws, c);
  }
  t0 = Clock::now();
  st->score.push_back(Us(t1, t0));
  st->score_per_candidate.push_back(
      Us(t1, t0) / static_cast<double>(std::max<size_t>(candidates.size(), 1)));

  std::vector<sim::BackgroundLoad> loads;
  {
    ScopedSpan s(&spans, "sim.ComputeBackgroundLoad", request, root);
    for (const auto& c : candidates) {
      loads.push_back(
          sim::ComputeBackgroundLoad(query, svc.ledger().cluster(), c));
    }
  }
  t1 = Clock::now();
  st->background.push_back(Us(t0, t1));

  {
    ScopedSpan s(&spans, "service.ledger.PlacementPenalty", request, root);
    const sim::BackgroundLoad total = svc.ledger().TotalLoad();
    for (const auto& l : loads) svc.ledger().PlacementPenalty(l, total);
  }
  t0 = Clock::now();
  st->penalty.push_back(Us(t1, t0));
  spans.End(root);
}

struct ServiceLeg {
  std::vector<double> admit_us;
  std::vector<double> retire_us;
  double drain_us_per_query = 0.0;
  double converge_us = 0.0;
  uint64_t decisions = 1469598103934665603ull;
  std::vector<std::pair<dsps::QueryGraph, sim::Placement>> deployed;
};

// One admission stream through a fresh service at `threads` scoring
// threads. With `replay`, every `stride`-th admission is first replayed
// stage by stage.
ServiceLeg RunServiceLeg(const RunConfig& config, const ProbeInputs& in,
                         int threads, bool replay, Checks& checks,
                         SpanRecorder& spans, StageTimes* st) {
  ServiceLeg leg;
  service::ServiceConfig sc = in.service_config;
  sc.num_threads = threads;
  // One rip-up round is enough to time Converge(); the probe's stream may
  // badly overload a small cluster, where a full negotiation would dwarf
  // every other stage.
  sc.max_iterations = 1;
  service::PlacementService svc(in.cluster, in.target, in.success,
                                in.backpressure, sc);
  costream::nn::Rng rng(SubSeed(config.seed, 90));
  std::vector<int64_t> live;
  const int n = static_cast<int>(in.queries.size());
  const int stride = std::max(1, n / 64);
  for (int i = 0; i < n; ++i) {
    if (i >= in.ramp && !live.empty()) {
      const size_t pick =
          static_cast<size_t>(rng.Int(0, static_cast<int>(live.size()) - 1));
      const auto t0 = Clock::now();
      const bool ok = svc.Retire(live[pick]);
      leg.retire_us.push_back(Us(t0, Clock::now()));
      checks.Expect(ok, "probe retire of a live tenant");
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    const bool sampled = replay && i % stride == 0;
    if (sampled) {
      ReplayAdmission(svc, in.queries[i], in, SubSeed(config.seed, 91 + i),
                      threads, i, spans, st);
    }
    const auto t0 = Clock::now();
    service::AdmitResult r;
    {
      ScopedSpan s(sampled ? &spans : nullptr, "service.Admit", i);
      r = svc.Admit(in.queries[i]);
    }
    const double us = Us(t0, Clock::now());
    leg.admit_us.push_back(us);
    if (sampled) st->admit.push_back(us);
    checks.Expect(std::isfinite(r.predicted), "finite probe prediction");
    leg.decisions = HashPlacement(r.placement, leg.decisions);
    live.push_back(r.id);
  }
  // One async batch of up to 16 re-submitted queries, then Converge.
  const int batch = std::min(n, 16);
  for (int i = 0; i < batch; ++i) svc.AdmitAsync(in.queries[i]);
  auto t0 = Clock::now();
  const auto drained = svc.DrainAdmissions();
  leg.drain_us_per_query = Us(t0, Clock::now()) / std::max(batch, 1);
  for (const auto& r : drained) {
    leg.decisions = HashPlacement(r.placement, leg.decisions);
  }
  t0 = Clock::now();
  const service::ConvergeResult cr = svc.Converge();
  leg.converge_us = Us(t0, Clock::now());
  leg.decisions = HashDouble(cr.ripups, leg.decisions);
  CheckDeployment(svc, "probe", checks);
  for (int64_t id : svc.QueryIds()) {
    if (leg.deployed.size() == 128) break;
    leg.deployed.emplace_back(svc.QueryOf(id), svc.PlacementOf(id));
  }
  return leg;
}

struct OptimizerLeg {
  std::vector<double> optimize_us;
  uint64_t decisions = 1469598103934665603ull;
};

OptimizerLeg RunOptimizerLeg(const RunConfig& config, const ProbeInputs& in,
                             int threads, Checks& checks) {
  OptimizerLeg leg;
  const placement::PlacementOptimizer optimizer(in.target, in.success,
                                                in.backpressure);
  const int m = std::min<int>(static_cast<int>(in.queries.size()), 48);
  for (int j = 0; j < m; ++j) {
    const sim::Cluster& cluster =
        in.optimize_clusters.empty()
            ? in.cluster
            : in.optimize_clusters[j % in.optimize_clusters.size()];
    placement::OptimizerConfig oc;
    oc.target = in.metric;
    oc.enumeration.num_candidates = 50;  // the paper's Fig. 9 setting
    oc.enumeration.seed = SubSeed(config.seed, 500 + j);
    oc.enumeration.num_threads = threads;
    oc.num_threads = threads;
    const auto t0 = Clock::now();
    const auto result = optimizer.Optimize(in.queries[j], cluster, oc);
    leg.optimize_us.push_back(Us(t0, Clock::now()));
    checks.Expect(std::isfinite(result.predicted_cost),
                  "finite optimizer prediction");
    leg.decisions = HashDouble(result.predicted_cost,
                               HashPlacement(result.best, leg.decisions));
  }
  return leg;
}

}  // namespace

void AddLegCounters(const ObsSnapshot& leg, MetricMap* m) {
  auto& out = *m;
  const double hits = leg.Counter("service.scoring.cache_hits");
  const double misses = leg.Counter("service.scoring.cache_misses");
  const double pruned = leg.Counter("service.scoring.pruned");
  out["service.converge_iterations"] = {
      leg.HistSum("service.converge_iterations"), "count"};
  out["service.ripups"] = {static_cast<double>(leg.Counter("service.ripups")),
                           "count"};
  out["service.scoring.pruned"] = {pruned, "count"};
  out["service.scoring.cache_hit_ratio"] = {Ratio(hits, hits + misses),
                                            "ratio"};
  out["service.scoring.pruned_ratio"] = {Ratio(pruned, pruned + hits + misses),
                                         "ratio"};
  out["service.scoring.ranked_candidates"] = {
      static_cast<double>(leg.Counter("service.scoring.ranked_candidates")),
      "count"};
  out["service.scoring.rescored_candidates"] = {
      static_cast<double>(leg.Counter("service.scoring.rescored_candidates")),
      "count"};
  out["service.ledger.overflow_node_events"] = {
      static_cast<double>(leg.Counter("service.overflow_node_events")),
      "count"};
  const double enc_hits = leg.Counter("placement.scorer.encode_cache_hits");
  const double enc_misses = leg.Counter("placement.scorer.encode_cache_misses");
  out["placement.scorer.encode_cache_hit_ratio"] = {
      Ratio(enc_hits, enc_hits + enc_misses), "ratio"};
  out["placement.optimizer.filtered_ratio"] = {
      Ratio(leg.Counter("placement.optimizer.filtered"),
            leg.Counter("placement.optimizer.candidates")),
      "ratio"};
  const double epochs = leg.Counter("core.train.epochs");
  const double epoch_s = leg.HistSum("core.train.epoch_us") / 1e6;
  out["core.train.epoch_s"] = {Ratio(epoch_s, epochs), "s"};
  out["core.train.samples_per_s"] = {
      Ratio(leg.Counter("core.train.samples"), epoch_s), "1/s"};
  out["sim.fluid.bisection_iterations_per_eval"] = {
      Ratio(leg.Counter("sim.fluid.bisection_iterations"),
            leg.Counter("sim.fluid.evaluations")),
      "ratio"};
  out["sim.des.events"] = {static_cast<double>(leg.Counter("sim.des.events")),
                           "count"};
  out["workload.corpus.records_per_s"] = {
      Ratio(leg.Counter("workload.corpus.records_generated"),
            leg.HistSum("workload.corpus.build_us") / 1e6),
      "1/s"};
  const double block_hits = leg.Counter("workload.reader.block_hits");
  const double block_misses = leg.Counter("workload.reader.block_misses");
  out["workload.reader.block_hit_ratio"] = {
      Ratio(block_hits, block_hits + block_misses), "ratio"};
  out["workload.reader.block_lookups"] = {block_hits + block_misses, "count"};
  // Times the workload itself produced; the probe fills them otherwise.
  if (leg.HistCount("service.async_drain_us") > 0) {
    out["service.drain_us_per_query"] = {
        leg.HistSum("service.async_drain_us") /
            std::max<double>(1.0, leg.Counter(
                                      "service.async_admissions_enqueued")),
        "us"};
  }
  if (leg.HistCount("service.converge_us") > 0) {
    out["service.converge_us.mean"] = {
        leg.HistSum("service.converge_us") /
            static_cast<double>(leg.HistCount("service.converge_us")),
        "us"};
  }
  if (leg.HistCount("workload.reader.decode_us") > 0) {
    out["workload.reader.decode_us"] = {
        leg.HistSum("workload.reader.decode_us") /
            static_cast<double>(leg.HistCount("workload.reader.decode_us")),
        "us"};
  }
}

void RunLayerProbe(const RunConfig& config, const ProbeInputs& in,
                   Checks& checks, SpanRecorder& spans, MetricMap* m) {
  auto& out = *m;
  auto fill = [&](const std::string& name, double value,
                  const std::string& unit) {
    if (out.count(name) == 0) out[name] = {value, unit};
  };

  PinThisThread(config.probe_cpus);

  // --- Service: the workload's 1-thread leg with the stage replay, then
  // the N-thread leg. Decisions must not depend on the thread count.
  StageTimes st;
  const ServiceLeg single =
      RunServiceLeg(config, in, 1, true, checks, spans, &st);
  const ServiceLeg multi = RunServiceLeg(config, in, config.probe_threads,
                                         false, checks, spans, &st);
  checks.Expect(single.decisions == multi.decisions,
                "service decisions equal at 1 and N threads");
  out["service.admit_us.p50"] = {Median(single.admit_us), "us"};
  out["service.admit_us.p99"] = {Quantile(single.admit_us, 0.99), "us"};
  out["service.retire_us.p50"] = {Median(single.retire_us), "us"};
  out["service.thread_speedup"] = {
      Ratio(Median(single.admit_us), Median(multi.admit_us)), "ratio"};
  fill("service.drain_us_per_query", single.drain_us_per_query, "us");
  fill("service.converge_us.mean", single.converge_us, "us");
  out["service.ledger.loaded_view_us"] = {Median(st.loaded_view), "us"};
  out["service.ledger.penalty_us"] = {Median(st.penalty), "us"};
  out["placement.enumerate_us"] = {Median(st.enumerate), "us"};
  out["placement.score_us_per_candidate"] = {Median(st.score_per_candidate),
                                             "us"};
  out["verify.interval_prepass_us"] = {Median(st.interval), "us"};
  out["sim.background_load_us"] = {Median(st.background), "us"};
  const double stages = Median(st.loaded_view) + Median(st.enumerate) +
                        Median(st.interval) + Median(st.score) +
                        Median(st.background) + Median(st.penalty);
  const double admit_base = Median(st.admit);
  out["service.admission_coverage"] = {Ratio(stages, admit_base), "ratio"};
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "admission coverage: stage medians %.1f us / Admit median "
                "%.1f us = %.3f (%zu sampled admissions)",
                stages, admit_base, Ratio(stages, admit_base), st.admit.size());
  Report(config, buf);
  Report(config, TimingLine("probe admit_us at 1 thread", single.admit_us,
                            "us"));
  Report(config, TimingLine("probe admit_us at " +
                                std::to_string(config.probe_threads) +
                                " threads",
                            multi.admit_us, "us"));

  // --- Placement optimizer: 1-thread and N-thread legs.
  const OptimizerLeg opt1 = RunOptimizerLeg(config, in, 1, checks);
  const OptimizerLeg optn =
      RunOptimizerLeg(config, in, config.probe_threads, checks);
  checks.Expect(opt1.decisions == optn.decisions,
                "optimizer decisions equal at 1 and N threads");
  out["placement.optimize_us.p50"] = {Median(opt1.optimize_us), "us"};
  out["placement.thread_speedup"] = {
      Ratio(Median(opt1.optimize_us), Median(optn.optimize_us)), "ratio"};
  Report(config, TimingLine("probe optimize_us at 1 thread", opt1.optimize_us,
                            "us"));
  Report(config, TimingLine("probe optimize_us at " +
                                std::to_string(config.probe_threads) +
                                " threads",
                            optn.optimize_us, "us"));

  // --- Fluid labels, featurization and evaluation on the deployed tenants.
  sim::FluidConfig fluid;
  fluid.duration_s = 30.0;
  fluid.noise_sigma = 0.0;
  std::vector<wl::TraceRecord> records;
  std::vector<double> fluid_us;
  for (const auto& [query, placement] : single.deployed) {
    wl::TraceRecord r;
    r.query = query;
    r.cluster = in.cluster;
    r.placement = placement;
    const auto t0 = Clock::now();
    r.metrics = sim::EvaluateFluid(query, in.cluster, placement, fluid).metrics;
    fluid_us.push_back(Us(t0, Clock::now()));
    records.push_back(std::move(r));
  }
  out["sim.fluid.us_per_evaluation"] = {Median(fluid_us), "us"};
  std::vector<core::TrainSample> samples;
  std::vector<double> featurize_us;
  for (const auto& r : records) {
    core::TrainSample sample;
    const auto t0 = Clock::now();
    const bool kept = wl::FeaturizeRecord(r, in.metric,
                                          core::FeaturizationMode::kFull,
                                          &sample);
    featurize_us.push_back(Us(t0, Clock::now()));
    if (kept) samples.push_back(std::move(sample));
  }
  out["core.featurize_us_per_record"] = {Median(featurize_us), "us"};
  auto t0 = Clock::now();
  const auto summary = core::EvaluateRegression(in.target->member(0), samples);
  out["core.eval_s"] = {SecondsSince(t0), "s"};
  checks.Expect(samples.empty() || std::isfinite(summary.q50),
                "finite probe evaluation");

  // --- DES on a few deployed tenants.
  uint64_t events = 0;
  double des_s = 0.0;
  for (size_t i = 0; i < std::min<size_t>(records.size(), 6); ++i) {
    sim::DesConfig dc;
    dc.duration_s = 0.25;
    dc.seed = SubSeed(config.seed, 700 + i);
    t0 = Clock::now();
    const auto des = sim::RunDes(records[i].query, records[i].cluster,
                                 records[i].placement, dc);
    des_s += SecondsSince(t0);
    events += des.events_processed;
  }
  out["sim.des.events_per_s"] = {Ratio(static_cast<double>(events), des_s),
                                 "1/s"};

  // --- Trace writer / reader round trip of the probe records.
  const std::string path = config.scratch_dir + "/probe.v2c";
  const ObsSnapshot before_io = ObsSnapshot::Take();
  t0 = Clock::now();
  wl::TraceWriter writer;
  wl::TraceWriter::Options options;
  options.format = wl::TraceFormat::kBinaryV2Compressed;
  options.block_bytes = size_t{16} << 10;
  bool written = writer.Open(path, options);
  for (const auto& r : records) written = writer.Append(r) && written;
  written = writer.Finish() && written;
  const double write_s = SecondsSince(t0);
  wl::TraceFileInfo info;
  written = wl::InspectTraceFile(path, &info) && written;
  std::ostringstream plain;
  wl::SaveTracesV2(plain, records);
  const double plain_bytes = static_cast<double>(plain.str().size());
  out["workload.trace.write_mb_per_s"] = {
      Ratio(static_cast<double>(info.file_bytes) / 1e6, write_s), "MB/s"};
  out["workload.trace.v2c_size_ratio"] = {
      Ratio(static_cast<double>(info.file_bytes), plain_bytes), "ratio"};
  auto reader = wl::TraceReader::Open(path);
  bool round_trip = written && reader != nullptr &&
                    reader->num_records() ==
                        static_cast<int64_t>(records.size());
  if (round_trip) {
    std::vector<wl::TraceRecord> back(records.size());
    for (size_t i = 0; i < back.size(); ++i) {
      round_trip = reader->Get(static_cast<int64_t>(i), &back[i]) && round_trip;
    }
    std::ostringstream image;
    wl::SaveTracesV2(image, back);
    round_trip = round_trip && image.str() == plain.str();
  }
  checks.Expect(round_trip, "probe trace round trip");
  reader.reset();
  std::remove(path.c_str());
  const ObsSnapshot io = ObsSnapshot::Take().Delta(before_io);
  fill("workload.reader.decode_us",
       Ratio(io.HistSum("workload.reader.decode_us"),
             static_cast<double>(io.HistCount("workload.reader.decode_us"))),
       "us");
}

void FinishTrace(const RunConfig& config, const SpanRecorder& spans) {
  for (const std::string& name : spans.Names()) {
    const std::vector<double> us = spans.DurationsUs(name);
    double total = 0.0;
    for (double v : us) total += v;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "span %s: n=%zu median %.1f us total %.3f s", name.c_str(),
                  us.size(), Median(us), total / 1e6);
    Report(config, buf);
  }
  const std::string path = config.scratch_dir + "/spans-" + config.workload +
                           "-" + std::to_string(config.seed) + ".json";
  if (spans.WriteJson(path)) Report(config, "spans written to " + path);
}

}  // namespace perfbench
