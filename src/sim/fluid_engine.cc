#include "sim/fluid_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "nn/random.h"
#include "obs/metrics.h"
#include "sim/cost_model.h"
#include "sim/flow_kernel.h"
#include "verify/interval_analysis.h"
#include "verify/verify.h"

namespace costream::sim {

namespace {

using dsps::OperatorDescriptor;
using dsps::OperatorType;
using dsps::QueryGraph;

// Utilization above which queueing delays are capped (fluid M/M/1 waiting
// time would diverge at 1.0).
constexpr double kQueueCap = 0.97;

using OpFlow = Flow<double>;

std::vector<OpFlow> ComputeFlows(const QueryGraph& query,
                                 const std::vector<int>& topo, double scale) {
  std::vector<OpFlow> flows(query.num_operators());
  for (int id : topo) {
    const OperatorDescriptor& op = query.op(id);
    const std::vector<int> upstream = query.Upstream(id);
    COSTREAM_CHECK(op.type != OperatorType::kAggregate || upstream.size() == 1);
    COSTREAM_CHECK(op.type != OperatorType::kJoin || upstream.size() == 2);
    flows[id] = TransferFlow(op, upstream, flows, scale);
  }
  return flows;
}

// Mean per-tuple service time (reference core); a join averages its two
// probe costs weighted by the arrival rates.
double ServiceUs(const OperatorDescriptor& op, const std::vector<int>& upstream,
                 const std::vector<OpFlow>& flows, int id) {
  if (op.type != OperatorType::kJoin) return PerTupleCostUs(op);
  return JoinProbeLoadUs(op, flows[upstream[0]], flows[upstream[1]]) /
         std::max(flows[id].in_rate, kEpsRate);
}

struct NodeEval {
  std::vector<NodeDemand<double>> nodes;
  // Per directed link (flattened row-major), only filled when the cluster
  // carries a link matrix; empty for legacy per-node clusters.
  std::vector<double> link_utilization;
  double max_utilization = 0.0;
};

NodeEval EvaluateNodes(const QueryGraph& query, const Cluster& cluster,
                       const Placement& placement,
                       const std::vector<OpFlow>& flows,
                       const BackgroundLoad& background) {
  NodeEval eval;
  AccumulateDemand(query, cluster, placement, flows, &background,
                   cluster.has_link_matrix(), &eval.nodes,
                   &eval.link_utilization);
  for (const NodeDemand<double>& s : eval.nodes) {
    eval.max_utilization = std::max(
        eval.max_utilization, std::max(s.cpu_utilization, s.net_utilization));
  }
  // Per-link constraint: every flow routed over a saturated link is
  // throttled together. Only links that carry an edge can be loaded.
  for (const auto& [from, to] : query.edges()) {
    if (eval.link_utilization.empty() || placement[from] == placement[to]) {
      continue;
    }
    eval.max_utilization = std::max(
        eval.max_utilization,
        eval.link_utilization[placement[from] * cluster.num_nodes() +
                              placement[to]]);
  }
  // Per-operator constraint: one operator instance runs single-threaded, so
  // an operator can use at most min(parallelism, node cores) cores even on
  // otherwise idle machines (Storm-executor semantics; the parallelism
  // extension raises this cap).
  for (int id = 0; id < query.num_operators(); ++id) {
    const int n = placement[id];
    const HardwareNode& hw = cluster.nodes[n];
    const double op_cores =
        EffectiveOpCores(query.op(id).parallelism, hw.cpu_pct);
    const double op_util =
        flows[id].cpu_load_us * eval.nodes[n].gc_factor / 1e6 / op_cores;
    eval.max_utilization = std::max(eval.max_utilization, op_util);
  }
  return eval;
}

std::vector<NodeStats> StatsOf(const NodeEval& eval, const Cluster& cluster) {
  std::vector<NodeStats> stats(eval.nodes.size());
  for (size_t n = 0; n < stats.size(); ++n) {
    const NodeDemand<double>& d = eval.nodes[n];
    stats[n].cpu_utilization = d.cpu_utilization;
    stats[n].net_utilization = d.net_utilization;
    stats[n].memory_mb = d.memory_mb;
    stats[n].gc_factor = d.gc_factor;
    stats[n].crashed = d.memory_mb > CrashMemoryMb(cluster.nodes[n].ram_mb);
  }
  return stats;
}

double QueueMultiplier(double utilization) {
  return 1.0 / (1.0 - std::min(utilization, kQueueCap));
}

// EvaluateFluid's body. `final_nodes`, when given, receives the per-node
// demand at the sustained source scale (before any backpressure backlog).
FluidReport Evaluate(const QueryGraph& query, const Cluster& cluster,
                     const Placement& placement, const FluidConfig& config,
                     std::vector<NodeDemand<double>>* final_nodes) {
  COSTREAM_CHECK_MSG(query.Validate().empty(), query.Validate().c_str());
  COSTREAM_CHECK_MSG(ValidatePlacement(query, cluster, placement).empty(),
                     "invalid placement");
  if (verify::VerificationEnabled()) {
    verify::VerifyReport vreport;
    verify::VerifyPlacedQuery(query, cluster, placement, &vreport);
    verify::CheckOrDie(vreport, "EvaluateFluid");
  }
  static obs::Counter& metric_evals = obs::GetCounter("sim.fluid.evaluations");
  static obs::Counter& metric_bisect_iters =
      obs::GetCounter("sim.fluid.bisection_iterations");
  static obs::Counter& metric_backpressure =
      obs::GetCounter("sim.fluid.backpressure");
  static obs::Counter& metric_crashes = obs::GetCounter("sim.fluid.crashes");
  metric_evals.Increment();
  COSTREAM_CHECK(config.background.empty() ||
                 static_cast<int>(config.background.cpu_load_us.size()) ==
                     cluster.num_nodes());

  const std::vector<int> topo = query.TopologicalOrder();

  // Utilization at the nominal rates decides backpressure.
  const std::vector<OpFlow> nominal_flows = ComputeFlows(query, topo, 1.0);
  const NodeEval nominal_eval = EvaluateNodes(query, cluster, placement,
                                              nominal_flows,
                                              config.background);

  FluidReport report;
  report.bottleneck_utilization = nominal_eval.max_utilization;
  const bool backpressure = nominal_eval.max_utilization > 1.0;

  // Under backpressure, bisect for the sustainable source scale (the largest
  // fraction of the nominal rates whose bottleneck utilization is <= 1).
  double scale = 1.0;
  if (backpressure) {
    metric_backpressure.Increment();
    double lo = 0.0;
    double hi = 1.0;
    for (int iter = 0; iter < 40; ++iter) {
      metric_bisect_iters.Increment();
      const double mid = 0.5 * (lo + hi);
      const std::vector<OpFlow> flows =
          ComputeFlows(query, topo, std::max(mid, 1e-9));
      const NodeEval eval = EvaluateNodes(query, cluster, placement, flows,
                                          config.background);
      if (eval.max_utilization > 1.0) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    scale = std::max(lo, 1e-9);
  }
  report.source_scale = scale;

  const std::vector<OpFlow> flows = ComputeFlows(query, topo, scale);
  const NodeEval eval =
      EvaluateNodes(query, cluster, placement, flows, config.background);
  report.node_stats = StatsOf(eval, cluster);
  report.link_utilization = eval.link_utilization;
  report.op_cpu_load_us.reserve(query.num_operators());
  report.op_state_mb.reserve(query.num_operators());
  for (int id = 0; id < query.num_operators(); ++id) {
    report.op_cpu_load_us.push_back(flows[id].cpu_load_us);
    report.op_state_mb.push_back(flows[id].state_mb);
  }

  // Backpressure rate R (Definition 4): surplus arrivals queuing up.
  if (backpressure) {
    for (int src : query.Sources()) {
      report.backpressure_rate +=
          query.op(src).input_event_rate * (1.0 - scale);
    }
    // Queued-up tuples occupy worker buffers on the nodes hosting the
    // sources; sustained backpressure can therefore exhaust memory and
    // crash the query (paper Section I: full internal queues lead to delays
    // "and even query crashes"). The backlog accrues over the run, bounded
    // by the consumer's in-flight window. Sources sharing a node pool their
    // backlog, so accumulate per node before re-evaluating.
    std::vector<double> backlog_mb(cluster.num_nodes(), 0.0);
    for (int src : query.Sources()) {
      const double surplus_rate =
          query.op(src).input_event_rate * (1.0 - scale);
      const double backlog_tuples =
          std::min(surplus_rate * config.duration_s, 2e6);
      backlog_mb[placement[src]] +=
          backlog_tuples * flows[src].out_bytes * 0.25 / (1024.0 * 1024.0);
    }
    // Re-evaluate each affected node once. One pass reaches the exact fixed
    // point: the backlog size depends only on the bisected source scale and
    // the run duration, never on gc_factor, so the chain backlog -> memory ->
    // GC slowdown -> cpu_utilization has no cycle. The cpu load itself is
    // unchanged, so utilization scales by the gc_factor ratio.
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      if (backlog_mb[n] <= 0.0) continue;
      NodeStats& s = report.node_stats[n];
      const double old_gc = s.gc_factor;
      s.memory_mb += backlog_mb[n];
      const double ram = cluster.nodes[n].ram_mb;
      s.gc_factor = GcSlowdown(s.memory_mb, ram);
      s.crashed = s.crashed || s.memory_mb > CrashMemoryMb(ram);
      s.cpu_utilization *= s.gc_factor / std::max(old_gc, 1e-12);
    }
  }

  // Latency DP along the data flow (Definition 2: time from the oldest
  // contributing input tuple's ingestion to the output's arrival at the
  // sink).
  // Reads report.node_stats (not eval.stats) so service times on nodes that
  // absorbed backpressure backlog see the raised GC slowdown.
  std::vector<double> latency_ms(query.num_operators(), 0.0);
  for (int id : topo) {
    const int node = placement[id];
    const NodeStats& ns = report.node_stats[node];
    const HardwareNode& hw = cluster.nodes[node];
    const std::vector<int> upstream = query.Upstream(id);
    double arrival = 0.0;
    for (int up : upstream) {
      double edge_ms = 0.0;
      const int up_node = placement[up];
      if (up_node != node) {
        const NodeStats& up_stats = report.node_stats[up_node];
        const HardwareNode& up_hw = cluster.nodes[up_node];
        if (cluster.has_link_matrix()) {
          // Per-link WAN model: the edge pays the link's own latency and is
          // queued behind every co-routed flow sharing this link.
          const double link_util =
              report.link_utilization[up_node * cluster.num_nodes() + node];
          const double transfer_ms =
              flows[up].out_bytes * 8.0 /
              std::max(cluster.LinkBandwidthMbits(up_node, node) * 1e6, 1.0) *
              1000.0;
          edge_ms = cluster.LinkLatencyMs(up_node, node) +
                    transfer_ms * QueueMultiplier(link_util);
        } else {
          const double transfer_ms =
              flows[up].out_bytes * 8.0 /
              std::max(up_hw.bandwidth_mbits * 1e6, 1.0) * 1000.0;
          edge_ms = up_hw.latency_ms +
                    transfer_ms * QueueMultiplier(up_stats.net_utilization);
        }
      }
      arrival = std::max(arrival, latency_ms[up] + edge_ms);
    }
    // A single tuple is processed by one instance, which runs on one core.
    const double instance_cores = std::min(hw.cpu_pct / 100.0, 1.0);
    const double service_ms = ServiceUs(query.op(id), upstream, flows, id) *
                              ns.gc_factor /
                              std::max(instance_cores, 1e-3) / 1000.0 *
                              QueueMultiplier(ns.cpu_utilization);
    // Windowed results wait for the window to fill / slide: the oldest
    // contributing tuple resides for up to a full window.
    const double window_wait_ms =
        (flows[id].window_duration_s + flows[id].slide_duration_s) * 0.5 *
        1000.0;
    latency_ms[id] = arrival + service_ms + window_wait_ms;
  }

  CostMetrics& m = report.noiseless_metrics;
  const int sink = query.Sink();
  m.throughput = flows[sink].out_rate;
  m.processing_latency_ms = latency_ms[sink];
  m.backpressure = backpressure;
  double broker_wait_ms = kBrokerBaseLatencyMs;
  if (backpressure) {
    // Queues in the broker grow linearly over the run; the mean waiting time
    // over the execution is about half of the accumulated lag.
    broker_wait_ms += (1.0 - scale) * config.duration_s * 0.5 * 1000.0;
  }
  m.e2e_latency_ms = m.processing_latency_ms + broker_wait_ms;

  bool crashed = false;
  for (const NodeStats& s : report.node_stats) crashed = crashed || s.crashed;
  if (crashed) metric_crashes.Increment();
  const double expected_outputs = m.throughput * config.duration_s;
  m.success = !crashed && expected_outputs >= 1.0 &&
              m.processing_latency_ms <= config.duration_s * 1000.0;
  if (crashed) {
    m.throughput = 0.0;
    m.e2e_latency_ms = config.duration_s * 1000.0;
  }

  report.metrics = m;
  // Crashed queries carry exact capped labels (zero throughput, latency
  // pinned to the run duration); noising them would contradict the caps.
  if (config.noise_sigma > 0.0 && !crashed) {
    nn::Rng rng(config.noise_seed);
    CostMetrics& noisy = report.metrics;
    noisy.throughput *= rng.LogNormalFactor(config.noise_sigma);
    noisy.processing_latency_ms *= rng.LogNormalFactor(config.noise_sigma);
    noisy.e2e_latency_ms *= rng.LogNormalFactor(config.noise_sigma);
    // The success bit was decided against the noiseless metrics; recompute it
    // so success == 1 still implies the reported latency is under the run cap
    // after noise.
    noisy.success = noisy.throughput * config.duration_s >= 1.0 &&
                    noisy.processing_latency_ms <= config.duration_s * 1000.0;
  }

  // Runtime oracle: every evaluation's nominal (scale = 1) per-node and
  // per-link utilizations, plus the noiseless processing latency, must lie
  // inside the intervals proven by the DF dataflow analysis. A violation
  // means either the analysis or the engine drifted — abort loudly rather
  // than silently produce labels the verifier can't vouch for.
  if (verify::VerificationEnabled()) {
    static obs::Counter& metric_oracle_checks =
        obs::GetCounter("verify.oracle.checks");
    static obs::Counter& metric_oracle_violations =
        obs::GetCounter("verify.oracle.violations");
    verify::FluidOracleInput oracle;
    oracle.node_cpu_utilization.reserve(nominal_eval.nodes.size());
    oracle.node_net_utilization.reserve(nominal_eval.nodes.size());
    for (const NodeDemand<double>& s : nominal_eval.nodes) {
      oracle.node_cpu_utilization.push_back(s.cpu_utilization);
      oracle.node_net_utilization.push_back(s.net_utilization);
    }
    oracle.link_utilization = nominal_eval.link_utilization;
    oracle.processing_latency_ms =
        report.noiseless_metrics.processing_latency_ms;
    oracle.duration_s = config.duration_s;
    metric_oracle_checks.Increment();
    const std::string violation = verify::CheckFluidOracle(
        query, cluster, placement, &config.background, oracle);
    if (!violation.empty()) {
      metric_oracle_violations.Increment();
      std::fprintf(stderr, "[costream] fluid oracle violation: %s\n",
                   violation.c_str());
      std::abort();
    }
  }
  if (final_nodes != nullptr) *final_nodes = eval.nodes;
  return report;
}

}  // namespace

FluidReport EvaluateFluid(const QueryGraph& query, const Cluster& cluster,
                          const Placement& placement,
                          const FluidConfig& config) {
  return Evaluate(query, cluster, placement, config, nullptr);
}

BackgroundLoad ComputeBackgroundLoad(const QueryGraph& query,
                                     const Cluster& cluster,
                                     const Placement& placement) {
  FluidConfig config;
  config.noise_sigma = 0.0;
  std::vector<NodeDemand<double>> nodes;
  Evaluate(query, cluster, placement, config, &nodes);

  // The query's own demand at its sustained rates, on an idle cluster.
  BackgroundLoad load;
  for (const NodeDemand<double>& s : nodes) {
    load.cpu_load_us.push_back(s.cpu_load_us);
    load.out_bytes_per_s.push_back(s.egress_bytes_per_s);
    load.memory_mb.push_back(s.memory_mb);
  }
  return load;
}

void AccumulateBackgroundLoad(const BackgroundLoad& extra, int nodes,
                              BackgroundLoad* base) {
  COSTREAM_CHECK(base != nullptr);
  if (base->empty()) {
    base->cpu_load_us.assign(nodes, 0.0);
    base->out_bytes_per_s.assign(nodes, 0.0);
    base->memory_mb.assign(nodes, 0.0);
  }
  COSTREAM_CHECK(static_cast<int>(base->cpu_load_us.size()) == nodes);
  COSTREAM_CHECK(extra.cpu_load_us.size() == base->cpu_load_us.size());
  for (int n = 0; n < nodes; ++n) {
    base->cpu_load_us[n] += extra.cpu_load_us[n];
    base->out_bytes_per_s[n] += extra.out_bytes_per_s[n];
    base->memory_mb[n] += extra.memory_mb[n];
  }
}

NodeCapacity CapacityOf(const HardwareNode& node) {
  NodeCapacity cap;
  // The denominators of AccumulateDemand's utilizations (flow_kernel.h):
  // cpu_utilization = cpu_load_us / 1e6 / cores and
  // net_utilization = out_bytes * 8 / (bandwidth_mbits * 1e6).
  cap.cpu_us_per_s = std::max(node.cpu_pct / 100.0, 1e-3) * 1e6;
  cap.net_bytes_per_s = std::max(node.bandwidth_mbits * 1e6, 1.0) / 8.0;
  cap.ram_mb = node.ram_mb;
  return cap;
}

Cluster DerateCluster(const Cluster& cluster, const BackgroundLoad& background) {
  if (background.empty()) return cluster;
  COSTREAM_CHECK(static_cast<int>(background.cpu_load_us.size()) ==
                 cluster.num_nodes());
  Cluster derated = cluster;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    HardwareNode& hw = derated.nodes[n];
    const NodeCapacity cap = CapacityOf(hw);
    const double cpu_util = background.cpu_load_us[n] / cap.cpu_us_per_s;
    hw.cpu_pct = std::max(hw.cpu_pct * (1.0 - cpu_util), 10.0);
    const double net_util = background.out_bytes_per_s[n] / cap.net_bytes_per_s;
    hw.bandwidth_mbits = std::max(hw.bandwidth_mbits * (1.0 - net_util), 1.0);
    hw.ram_mb = std::max(hw.ram_mb - background.memory_mb[n], 128.0);
  }
  return derated;
}

}  // namespace costream::sim
