// Randomized property sweep of the fluid-engine runtime oracle: across
// hundreds of random query/cluster/placement triples — including
// geo-distributed clusters with full n*n link matrices — every fluid
// evaluation's per-node utilizations, per-link utilizations and processing
// latency must lie inside the proven intervals. Verification is forced on,
// so the in-engine oracle hook (which aborts the process on a violation)
// fires on every EvaluateFluid call; unthrottled runs are additionally
// cross-checked through the pure CheckFluidOracle entry point. Every
// triple's fluid report, background load and zero-uncertainty interval
// endpoints are also folded into one digest pinned to its recorded value, so
// any change to the flow math that moves a single bit fails the sweep.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dsps/query_graph.h"
#include "nn/random.h"
#include "placement/enumeration.h"
#include "sim/fluid_engine.h"
#include "sim/geo.h"
#include "sim/hardware.h"
#include "verify/interval_analysis.h"
#include "verify/verify.h"
#include "workload/generator.h"

namespace costream::verify {
namespace {

struct SweepStats {
  int evaluated = 0;
  int direct_checks = 0;  // unthrottled runs probed through CheckFluidOracle
  int geo_cases = 0;      // clusters carrying a link matrix
  int throttled = 0;      // backpressured runs (oracle hook still fired)
  uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
};

// Order-sensitive FNV-1a over the exact bit patterns of the folded values.
void Fold(uint64_t word, uint64_t* digest) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (word >> (8 * byte)) & 0xff;
    *digest *= 1099511628211ull;
  }
}
void Fold(double v, uint64_t* digest) {
  Fold(std::bit_cast<uint64_t>(v), digest);
}
void Fold(bool v, uint64_t* digest) { Fold(uint64_t{v}, digest); }
void Fold(const Interval& v, uint64_t* digest) {
  Fold(v.lo, digest);
  Fold(v.hi, digest);
}
template <typename V>
void Fold(const std::vector<V>& values, uint64_t* digest) {
  Fold(uint64_t{values.size()}, digest);
  for (const V& v : values) Fold(v, digest);
}

void FoldReport(const sim::FluidReport& r, uint64_t* digest) {
  for (const sim::NodeStats& s : r.node_stats) {
    Fold(s.cpu_utilization, digest);
    Fold(s.net_utilization, digest);
    Fold(s.memory_mb, digest);
    Fold(s.gc_factor, digest);
    Fold(s.crashed, digest);
  }
  Fold(r.link_utilization, digest);
  Fold(r.op_cpu_load_us, digest);
  Fold(r.op_state_mb, digest);
  Fold(r.source_scale, digest);
  Fold(r.bottleneck_utilization, digest);
  Fold(r.backpressure_rate, digest);
  const sim::CostMetrics& m = r.noiseless_metrics;
  Fold(m.throughput, digest);
  Fold(m.processing_latency_ms, digest);
  Fold(m.e2e_latency_ms, digest);
  Fold(m.backpressure, digest);
  Fold(m.success, digest);
}

// Folds everything the flow math produces for one triple: the fluid report
// on an idle cluster and again with the query's own steady-state load as
// background, that background load, and the zero-uncertainty query and
// placement intervals (idle and loaded).
void FoldTriple(const dsps::QueryGraph& query, const sim::Cluster& cluster,
                const sim::Placement& placement,
                const sim::FluidReport& idle_report, uint64_t* digest) {
  FoldReport(idle_report, digest);
  const sim::BackgroundLoad load =
      sim::ComputeBackgroundLoad(query, cluster, placement);
  Fold(load.cpu_load_us, digest);
  Fold(load.out_bytes_per_s, digest);
  Fold(load.memory_mb, digest);
  sim::FluidConfig loaded;
  loaded.noise_sigma = 0.0;
  loaded.background = load;
  FoldReport(sim::EvaluateFluid(query, cluster, placement, loaded), digest);

  const QueryIntervalSummary intervals =
      AnalyzeQueryIntervals(query, IntervalOptions{}, nullptr);
  for (const OpIntervals& f : intervals.ops) {
    Fold(f.in_rate, digest);
    Fold(f.out_rate, digest);
    Fold(f.window_tuples, digest);
    Fold(f.window_duration_s, digest);
    Fold(f.slide_duration_s, digest);
    Fold(f.groups, digest);
    Fold(f.state_mb, digest);
    Fold(f.cpu_load_us, digest);
    Fold(f.in_bytes, digest);
    Fold(f.out_bytes, digest);
    Fold(f.min_delay_ms, digest);
  }
  Fold(intervals.diverged, digest);
  Fold(intervals.inconsistent_source, digest);
  Fold(intervals.min_sink_delay_ms, digest);
  for (const sim::BackgroundLoad* background :
       {static_cast<const sim::BackgroundLoad*>(nullptr), &load}) {
    const PlacementIntervalSummary proven = AnalyzePlacementIntervals(
        query, cluster, placement, intervals, background, nullptr);
    for (const NodeIntervals& s : proven.nodes) {
      Fold(s.cpu_load_us, digest);
      Fold(s.memory_mb, digest);
      Fold(s.egress_bytes_per_s, digest);
      Fold(s.gc_factor, digest);
      Fold(s.cpu_utilization, digest);
      Fold(s.net_utilization, digest);
      Fold(s.hosts_op, digest);
      Fold(s.proven_crash, digest);
      Fold(s.proven_overload, digest);
    }
    Fold(proven.link_utilization, digest);
    Fold(proven.proven_crash, digest);
  }
}

FluidOracleInput OracleInputFrom(const sim::FluidReport& report,
                                 double duration_s) {
  FluidOracleInput input;
  input.node_cpu_utilization.reserve(report.node_stats.size());
  input.node_net_utilization.reserve(report.node_stats.size());
  for (const sim::NodeStats& stats : report.node_stats) {
    input.node_cpu_utilization.push_back(stats.cpu_utilization);
    input.node_net_utilization.push_back(stats.net_utilization);
  }
  input.link_utilization = report.link_utilization;
  input.processing_latency_ms =
      report.noiseless_metrics.processing_latency_ms;
  input.duration_s = duration_s;
  return input;
}

// One sweep leg: `triples` random (query, cluster, placement) draws with the
// given generator config and cluster factory.
template <typename ClusterFactory>
void RunSweep(const workload::GeneratorConfig& config, uint64_t seed,
              int triples, ClusterFactory make_cluster, SweepStats* stats) {
  const workload::QueryGenerator generator(config);
  nn::Rng rng(seed);
  const workload::QueryTemplate templates[] = {
      workload::QueryTemplate::kLinear, workload::QueryTemplate::kTwoWayJoin,
      workload::QueryTemplate::kThreeWayJoin,
      workload::QueryTemplate::kFilterChain};
  for (int i = 0; i < triples; ++i) {
    const dsps::QueryGraph query =
        generator.Generate(templates[i % 4], rng);
    const sim::Cluster cluster = make_cluster(generator, rng);
    const std::vector<int> bins = placement::CapabilityBins(cluster);
    const sim::Placement placement =
        placement::SamplePlacement(query, cluster, bins, rng);

    sim::FluidConfig fluid;
    fluid.noise_sigma = 0.0;
    // The oracle hook inside EvaluateFluid aborts the whole process on any
    // containment violation, so merely returning is the core assertion.
    const sim::FluidReport report =
        sim::EvaluateFluid(query, cluster, placement, fluid);
    ++stats->evaluated;
    FoldTriple(query, cluster, placement, report, &stats->digest);
    if (cluster.has_link_matrix()) {
      ++stats->geo_cases;
      EXPECT_EQ(report.link_utilization.size(),
                cluster.nodes.size() * cluster.nodes.size());
    }
    if (report.source_scale == 1.0 && report.backpressure_rate == 0.0) {
      // Unthrottled: the reported stats *are* the nominal observables, so
      // the pure oracle entry point must agree they are contained.
      const std::string violation =
          CheckFluidOracle(query, cluster, placement, &fluid.background,
                           OracleInputFrom(report, fluid.duration_s));
      EXPECT_EQ(violation, "")
          << "triple " << i << " (seed " << seed << ")";
      // Both sides run the same flow kernel, so the point intervals are the
      // engine's values exactly, not just within the oracle's tolerance.
      const PlacementIntervalSummary proven = AnalyzePlacementIntervals(
          query, cluster, placement,
          AnalyzeQueryIntervals(query, IntervalOptions{}, nullptr),
          &fluid.background, nullptr);
      ASSERT_EQ(proven.nodes.size(), report.node_stats.size());
      for (size_t n = 0; n < proven.nodes.size(); ++n) {
        const sim::NodeStats& s = report.node_stats[n];
        EXPECT_EQ(proven.nodes[n].cpu_utilization,
                  Interval(s.cpu_utilization));
        EXPECT_EQ(proven.nodes[n].net_utilization,
                  Interval(s.net_utilization));
        EXPECT_EQ(proven.nodes[n].memory_mb, Interval(s.memory_mb));
      }
      ASSERT_EQ(proven.link_utilization.size(),
                report.link_utilization.size());
      for (size_t l = 0; l < proven.link_utilization.size(); ++l) {
        EXPECT_EQ(proven.link_utilization[l],
                  Interval(report.link_utilization[l]));
      }
      ++stats->direct_checks;
    } else {
      ++stats->throttled;
    }
  }
}

TEST(VerifyOracleSweepTest, RandomTriplesStayInsideProvenIntervals) {
  // Belt and braces: the hook is already on in Debug/sanitizer builds; force
  // it so the sweep also bites in a plain Release build.
  SetVerificationEnabled(true);
  SweepStats stats;

  // Leg 1: the training-grid generator clusters (no link matrix).
  RunSweep(
      workload::GeneratorConfig{}, 1234, 120,
      [](const workload::QueryGenerator& g, nn::Rng& rng) {
        return g.GenerateCluster(rng);
      },
      &stats);

  // Leg 2: operators with degree-of-parallelism > 1.
  workload::GeneratorConfig parallel;
  parallel.parallelism_fraction = 0.5;
  RunSweep(
      parallel, 987, 40,
      [](const workload::QueryGenerator& g, nn::Rng& rng) {
        return g.GenerateCluster(rng);
      },
      &stats);

  // Leg 3: geo-distributed edge-fog-cloud clusters with WAN link matrices.
  RunSweep(
      workload::GeneratorConfig{}, 555, 60,
      [](const workload::QueryGenerator&, nn::Rng& rng) {
        sim::GeoClusterConfig geo;
        geo.regions = 1 + rng.Int(0, 2);
        geo.edge_per_region = 1 + rng.Int(0, 2);
        geo.fog_per_region = 1;
        geo.cloud_nodes = 1 + rng.Int(0, 1);
        geo.wan.wan_bandwidth_mbits = rng.Uniform(20.0, 200.0);
        geo.wan.wan_latency_ms = rng.Uniform(10.0, 120.0);
        return sim::MakeGeoCluster(geo);
      },
      &stats);

  EXPECT_GE(stats.evaluated, 200);
  // Recorded before the fluid engine and the interval prover were moved onto
  // one shared flow kernel; both must stay bit-for-bit unchanged. The pin
  // assumes IEEE double arithmetic without FMA contraction (the default
  // x86-64 build, which has no -march flags).
  EXPECT_EQ(stats.digest, 0xc9dcea2712114f1full)
      << std::hex << "0x" << stats.digest;
  EXPECT_GT(stats.direct_checks, 0);
  EXPECT_GT(stats.geo_cases, 0);
  // The sweep must include backpressured runs: the oracle's nominal-scale
  // containment has to hold even when the engine throttles the sources.
  EXPECT_GT(stats.throttled, 0);
}

TEST(VerifyOracleSweepTest, FabricatedViolationIsReported) {
  // CheckFluidOracle is pure: feeding it an observable outside the proven
  // interval must name the violation instead of silently passing.
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(3);
  const dsps::QueryGraph query =
      generator.Generate(workload::QueryTemplate::kLinear, rng);
  const sim::Cluster cluster = generator.GenerateCluster(rng);
  const std::vector<int> bins = placement::CapabilityBins(cluster);
  const sim::Placement placement =
      placement::SamplePlacement(query, cluster, bins, rng);

  sim::FluidConfig fluid;
  fluid.noise_sigma = 0.0;
  const sim::FluidReport report =
      sim::EvaluateFluid(query, cluster, placement, fluid);
  FluidOracleInput input = OracleInputFrom(report, fluid.duration_s);
  ASSERT_FALSE(input.node_cpu_utilization.empty());
  input.node_cpu_utilization[0] += 1000.0;  // provably out of range
  const std::string violation =
      CheckFluidOracle(query, cluster, placement, &fluid.background, input);
  EXPECT_NE(violation, "");
}

TEST(VerifyOracleSweepTest, LatencyDominatesProvenSinkDelayLowerBound) {
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(11);
  int checked = 0;
  for (int i = 0; i < 40; ++i) {
    const dsps::QueryGraph query = generator.Generate(
        i % 2 == 0 ? workload::QueryTemplate::kLinear
                   : workload::QueryTemplate::kTwoWayJoin,
        rng);
    const sim::Cluster cluster = generator.GenerateCluster(rng);
    const std::vector<int> bins = placement::CapabilityBins(cluster);
    const sim::Placement placement =
        placement::SamplePlacement(query, cluster, bins, rng);
    sim::FluidConfig fluid;
    fluid.noise_sigma = 0.0;
    const sim::FluidReport report =
        sim::EvaluateFluid(query, cluster, placement, fluid);
    if (report.noiseless_metrics.processing_latency_ms < 0) continue;
    const QueryIntervalSummary summary =
        AnalyzeQueryIntervals(query, IntervalOptions{}, nullptr);
    if (summary.diverged || summary.inconsistent_source) continue;
    EXPECT_GE(report.noiseless_metrics.processing_latency_ms,
              summary.min_sink_delay_ms * (1.0 - 1e-6))
        << "triple " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace costream::verify
