#ifndef COSTREAM_VERIFY_INTERVAL_ANALYSIS_H_
#define COSTREAM_VERIFY_INTERVAL_ANALYSIS_H_

#include <string>
#include <vector>

#include "dsps/query_graph.h"
#include "sim/flow_kernel.h"
#include "sim/fluid_engine.h"
#include "sim/hardware.h"
#include "verify/rules.h"

namespace costream::verify {

// Interval abstract interpretation over streaming-query DAGs (DF rule
// family). The analysis propagates closed [lo, hi] intervals for tuple
// rates, window contents, operator state and CPU load forward through the
// operator graph by instantiating the fluid engine's own flow kernel
// (sim/flow_kernel.h) with T = Interval: one copy of the formulas, built from
// primitives that are monotone in their flow inputs (Div pairs opposite
// endpoints), so the intervals are sound by construction. Combined with a
// placement and a cluster, the per-operator intervals yield *proven*
// per-node CPU/RAM/network and per-directed-link bandwidth intervals: any
// value the fluid engine can produce at the nominal source rates lies inside
// them. Three consumers:
//
//   * lint rules DF001-DF005 (VerifyPlacedQuery / costream_lint),
//   * a runtime oracle cross-checking every fluid evaluation (CheckFluidOracle,
//     called from EvaluateFluid when verification is enabled),
//   * the placement service's candidate pre-pass, which prunes candidates
//     proven to crash before GEMM scoring (service.scoring.pruned).

// Closed interval over non-negative reals (hi may be +infinity after
// widening). The empty interval is represented by lo > hi and only appears
// transiently for inconsistent inputs (DF004).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  constexpr Interval() = default;
  constexpr explicit Interval(double v) : lo(v), hi(v) {}
  constexpr Interval(double lower, double upper) : lo(lower), hi(upper) {}

  bool valid() const { return lo <= hi; }
  bool is_point() const { return lo == hi; }
  bool operator==(const Interval&) const = default;

  // Containment with slack rel_tol * max(1, |bound|) beyond either bound.
  bool Contains(double v, double rel_tol) const;
};

// The flow kernel's primitives for T = Interval (found by ADL), sound over
// non-negative quantities. Mul treats 0 * inf as 0 (the supremum of x*y over
// bounded x is what we bound).
Interval Add(const Interval& a, const Interval& b);
Interval Mul(const Interval& a, const Interval& b);
// a / b with b > 0 elementwise (callers floor the denominator first); the
// quotient is antitone in b, so each endpoint pairs b's opposite endpoint.
Interval Div(const Interval& a, const Interval& b);
Interval Max(const Interval& a, const Interval& b);
Interval Min(const Interval& a, const Interval& b);
// Image of a nondecreasing function: `fn` at both endpoints.
template <typename Fn>
Interval Apply(Fn fn, const Interval& a) {
  return {fn(a.lo), fn(a.hi)};
}
// Smallest interval containing both (the lattice join used by widening).
Interval IntervalJoin(const Interval& a, const Interval& b);

struct IntervalOptions {
  // Relative slack applied to every source's declared event rate: the seeded
  // rate interval is [rate*(1-u), rate*(1+u)]. 0 (the default) makes the
  // analysis exact at the nominal rates, which is what the fluid oracle and
  // the pruning pre-pass need.
  double rate_uncertainty = 0.0;
  // Run duration against which the DF005 delay bound is checked. Matches
  // FluidConfig::duration_s.
  double duration_s = 240.0;
};

// Per-operator flow intervals at the nominal source rates (scale == 1): the
// flow kernel's sim::Flow<Interval>, plus the event-time delay bound.
struct OpIntervals : sim::Flow<Interval> {
  // Lower bound on the event-time delay (ms) from the oldest contributing
  // input tuple to this operator's output: the sum of window residence
  // waits along the slowest path. Transfer, queueing and service times are
  // non-negative, so this bounds the fluid latency DP from below at any
  // source scale (count-based windows only fill slower when throttled).
  double min_delay_ms = 0.0;
};

struct QueryIntervalSummary {
  std::vector<OpIntervals> ops;
  // True when widening fired (cyclic graph) or a quantity overflowed to
  // +infinity / NaN: some interval carries no finite upper bound (DF001).
  bool diverged = false;
  // True when a source spec seeded an inconsistent interval (DF004).
  bool inconsistent_source = false;
  // Lower bound on the processing latency at the sink (DF005 checks it
  // against the run duration).
  double min_sink_delay_ms = 0.0;
};

// Propagates intervals through the query graph. `report` may be null; when
// given, DF001 (divergence) and DF004 (inconsistent source spec) errors and
// the DF005 (delay bound exceeds the run duration) warning are appended.
// Never aborts, even on structurally invalid graphs (malformed arity feeds
// zero intervals; cycles widen).
QueryIntervalSummary AnalyzeQueryIntervals(const dsps::QueryGraph& query,
                                           const IntervalOptions& options,
                                           VerifyReport* report);

// Proven per-node demand at the nominal rates (background included when
// given): the flow kernel's sim::NodeDemand<Interval> (cpu_load_us,
// memory_mb, egress_bytes_per_s, gc_factor, cpu/net utilization, hosts_op),
// plus the proofs drawn from it.
struct NodeIntervals : sim::NodeDemand<Interval> {
  // memory_mb.lo exceeds CrashMemoryMb(ram): the worker provably crashes.
  bool proven_crash = false;
  // cpu or net utilization lower bound exceeds 1: provable backpressure.
  bool proven_overload = false;
};

struct PlacementIntervalSummary {
  std::vector<NodeIntervals> nodes;
  // Flattened row-major n*n per-directed-link utilization intervals; only
  // populated when the cluster carries a link matrix.
  std::vector<Interval> link_utilization;
  // Any node's proven_crash: the placement cannot run to completion.
  bool proven_crash = false;
};

// Combines per-operator intervals with a placement and cluster into proven
// per-node and per-link demand intervals. `background` may be null (idle
// cluster); `report` may be null; when given, DF002 (proven-infeasible node)
// and DF003 (proven-choked link) warnings are appended. The query/placement
// pair must be structurally valid (placement sized and in range).
PlacementIntervalSummary AnalyzePlacementIntervals(
    const dsps::QueryGraph& query, const sim::Cluster& cluster,
    const sim::Placement& placement, const QueryIntervalSummary& intervals,
    const sim::BackgroundLoad* background, VerifyReport* report);

// Runs both passes with default options and appends every DF diagnostic to
// `report`. Called from VerifyPlacedQuery once the structural rules pass.
void VerifyIntervals(const dsps::QueryGraph& query, const sim::Cluster& cluster,
                     const sim::Placement& placement,
                     const IntervalOptions& options, VerifyReport* report);

// One fluid evaluation's observables at the nominal source rates, for the
// runtime oracle.
struct FluidOracleInput {
  std::vector<double> node_cpu_utilization;  // per node, nominal scale
  std::vector<double> node_net_utilization;
  std::vector<double> link_utilization;      // n*n when a link matrix exists
  // Noiseless end-of-run processing latency; negative skips the check.
  double processing_latency_ms = -1.0;
  double duration_s = 240.0;
};

// Cross-checks a fluid evaluation against the proven intervals: every
// per-node cpu/net utilization and per-link utilization must lie inside its
// interval, and the processing latency must dominate the proven lower bound.
// Returns an empty string when everything is contained, otherwise a
// description of the first violation. Pure (no counters, no abort) so tests
// can probe it with fabricated inputs.
std::string CheckFluidOracle(const dsps::QueryGraph& query,
                             const sim::Cluster& cluster,
                             const sim::Placement& placement,
                             const sim::BackgroundLoad* background,
                             const FluidOracleInput& input);

}  // namespace costream::verify

#endif  // COSTREAM_VERIFY_INTERVAL_ANALYSIS_H_
