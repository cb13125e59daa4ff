#ifndef COSTREAM_SIM_FLOW_KERNEL_H_
#define COSTREAM_SIM_FLOW_KERNEL_H_

#include <algorithm>
#include <vector>

#include "dsps/query_graph.h"
#include "sim/cost_model.h"
#include "sim/fluid_engine.h"
#include "sim/hardware.h"

namespace costream::sim {

// The steady-state flow model (per-operator rate x per-tuple cost, summed per
// node into CPU, RAM and network demand), written once over a numeric type T:
//
//  * T = double is the fluid engine (EvaluateFluid, ComputeBackgroundLoad);
//  * T = verify::Interval is the interval prover (AnalyzeQueryIntervals,
//    AnalyzePlacementIntervals).
//
// Every formula below is built from the primitives Add, Mul, Div, Max, Min
// over (T, T), T(constant), and Apply(fn, x) for a nondecreasing `fn`; the
// double overloads are below, other types supply theirs in their own
// namespace (found by ADL). Over the model's non-negative quantities every
// primitive is monotone nondecreasing in each argument except Div, which is
// antitone in its denominator, so an interval instantiation whose Div pairs
// opposite endpoints yields sound bounds by construction. Both
// instantiations run the same operations in the same order, so on finite
// point intervals the interval result equals the double one bit for bit.

// Floor on rates used as divisors, and cap on count-window durations.
inline constexpr double kEpsRate = 1e-9;
inline constexpr double kMaxDuration = 1e12;

inline double Add(double a, double b) { return a + b; }
inline double Mul(double a, double b) { return a * b; }
inline double Div(double a, double b) { return a / b; }
inline double Max(double a, double b) { return std::max(a, b); }
inline double Min(double a, double b) { return std::min(a, b); }
template <typename Fn>
double Apply(Fn fn, double x) {
  return fn(x);
}

// Steady-state flow through one operator.
template <typename T>
struct Flow {
  T in_rate{};   // tuples/s entering the operator
  T out_rate{};  // tuples/s leaving the operator
  // Window-node quantities (tuples / seconds); zero elsewhere.
  T window_tuples{};
  T window_duration_s{};
  T slide_duration_s{};
  T groups{};       // aggregate operators
  T state_mb{};     // operator state held in memory
  T cpu_load_us{};  // microseconds of reference core per second
  double in_bytes = 0.0;   // bytes per input tuple
  double out_bytes = 0.0;  // bytes per output tuple
};

// The T-valued members of Flow, for code that treats them uniformly.
template <typename T>
inline constexpr T Flow<T>::*kFlowQuantities[] = {
    &Flow<T>::in_rate,           &Flow<T>::out_rate,
    &Flow<T>::window_tuples,     &Flow<T>::window_duration_s,
    &Flow<T>::slide_duration_s,  &Flow<T>::groups,
    &Flow<T>::state_mb,          &Flow<T>::cpu_load_us};

// What a missing aggregate/join input reads as.
template <typename T>
inline const Flow<T> kNoFlow{};

// CPU load of a join's input side: each arriving tuple of one stream probes
// the opposite window, and the probe cost grows with that window's size.
template <typename T>
T JoinProbeLoadUs(const dsps::OperatorDescriptor& op, const Flow<T>& w1,
                  const Flow<T>& w2) {
  const auto probe = [&op](double window) {
    return PerTupleCostUs(op, window);
  };
  return Add(Mul(w1.out_rate, Apply(probe, w2.window_tuples)),
             Mul(w2.out_rate, Apply(probe, w1.window_tuples)));
}

// One operator's flow from its upstream flows (`flows[up]` for each id in
// `upstream`, in order). A missing aggregate/join input reads as an empty
// flow, so malformed arity never aborts here. Sources emit their declared
// rate times `rate_scale`.
template <typename T, typename Flows>
Flow<T> TransferFlow(const dsps::OperatorDescriptor& op,
                     const std::vector<int>& upstream, const Flows& flows,
                     const T& rate_scale) {
  const auto input = [&](size_t i) -> const Flow<T>& {
    if (i < upstream.size()) return flows[upstream[i]];
    return kNoFlow<T>;
  };
  Flow<T> f;
  f.in_bytes = dsps::TupleBytes(op.tuple_width_in, op.frac_int,
                                op.frac_double, op.frac_string);
  f.out_bytes = dsps::TupleBytes(op.tuple_width_out, op.frac_int,
                                 op.frac_double, op.frac_string);
  for (int up : upstream) f.in_rate = Add(f.in_rate, flows[up].out_rate);

  switch (op.type) {
    case dsps::OperatorType::kSource: {
      f.out_rate = Mul(T(op.input_event_rate), rate_scale);
      f.cpu_load_us = Mul(f.out_rate, T(PerTupleCostUs(op)));
      f.in_bytes = f.out_bytes;
      break;
    }
    case dsps::OperatorType::kFilter: {
      f.out_rate = Mul(f.in_rate, T(op.selectivity));
      f.cpu_load_us = Mul(f.in_rate, T(PerTupleCostUs(op)));
      break;
    }
    case dsps::OperatorType::kWindow: {
      f.out_rate = f.in_rate;
      const T rate = Max(f.in_rate, T(kEpsRate));
      if (op.window.policy == dsps::WindowPolicy::kCountBased) {
        // Durations are antitone in the rate: the fastest arrivals fill the
        // window soonest.
        f.window_tuples = T(op.window.size);
        f.window_duration_s =
            Min(Div(T(op.window.size), rate), T(kMaxDuration));
        f.slide_duration_s =
            Min(Div(T(op.window.EffectiveSlide()), rate), T(kMaxDuration));
      } else {
        f.window_duration_s = T(op.window.size);
        f.window_tuples = Mul(rate, T(op.window.size));
        f.slide_duration_s = T(op.window.EffectiveSlide());
      }
      f.cpu_load_us = Mul(f.in_rate, T(PerTupleCostUs(op)));
      f.state_mb = Apply(
          [&f](double tuples) { return WindowStateMb(tuples, f.in_bytes); },
          f.window_tuples);
      break;
    }
    case dsps::OperatorType::kAggregate: {
      const Flow<T>& w = input(0);
      // clamp(selectivity * window, 1, max(window, 1)) groups.
      f.groups = op.group_by_type != dsps::GroupByType::kNone
                     ? Min(Max(Mul(T(op.selectivity), w.window_tuples),
                               T(1.0)),
                           Max(w.window_tuples, T(1.0)))
                     : T(1.0);
      // One result per group per slide, once the window holds any tuple.
      const auto nonempty = [](double tuples) {
        return tuples > 0.0 ? 1.0 : 0.0;
      };
      const T slide = Max(w.slide_duration_s, T(1e-6));
      f.out_rate =
          Mul(Apply(nonempty, w.window_tuples), Div(f.groups, slide));
      f.cpu_load_us = Add(Mul(f.in_rate, T(PerTupleCostUs(op))),
                          Mul(f.out_rate, T(PerOutputCostUs(op))));
      f.state_mb = Apply(
          [&f](double groups) { return AggregateStateMb(groups, f.out_bytes); },
          f.groups);
      break;
    }
    case dsps::OperatorType::kJoin: {
      const Flow<T>& w1 = input(0);
      const Flow<T>& w2 = input(1);
      // Each arriving tuple of stream 1 probes window 2 and vice versa
      // (Definition 7 gives the match probability).
      f.out_rate = Mul(T(op.selectivity),
                       Add(Mul(w1.out_rate, w2.window_tuples),
                           Mul(w2.out_rate, w1.window_tuples)));
      f.cpu_load_us = Add(JoinProbeLoadUs(op, w1, w2),
                          Mul(f.out_rate, T(PerOutputCostUs(op))));
      // Probe index over both windows.
      const auto window_state = [](double bytes) {
        return [bytes](double tuples) { return WindowStateMb(tuples, bytes); };
      };
      f.state_mb =
          Mul(T(0.3), Add(Apply(window_state(w1.out_bytes), w1.window_tuples),
                          Apply(window_state(w2.out_bytes), w2.window_tuples)));
      break;
    }
    case dsps::OperatorType::kSink: {
      f.out_rate = f.in_rate;
      f.cpu_load_us = Mul(f.in_rate, T(PerTupleCostUs(op)));
      break;
    }
  }
  return f;
}

// Per-node demand of a placed query plus any background load.
template <typename T>
struct NodeDemand {
  using value_type = T;
  T cpu_load_us{};  // reference-core microseconds per second, before GC
  T memory_mb{};
  T egress_bytes_per_s{};
  T gc_factor{};
  T cpu_utilization{};
  T net_utilization{};
  bool hosts_op = false;
};

// Accumulates per-node demand (`nodes`, resized to the cluster) and, when
// `has_links`, per-directed-link utilization (`link_utilization`, flattened
// row-major n*n; cleared otherwise) from per-operator flows. Order is fixed:
// background, operators ascending, edges in insertion order, worker base
// memory, GC factor, utilizations. Co-routed flows (edges placed over the
// same directed node pair) sum into the same link and share its capacity.
// `background` may be null; it is skipped unless sized to the cluster.
template <typename Node, typename Flows>
void AccumulateDemand(const dsps::QueryGraph& query, const Cluster& cluster,
                      const Placement& placement, const Flows& flows,
                      const BackgroundLoad* background, bool has_links,
                      std::vector<Node>* nodes,
                      std::vector<typename Node::value_type>*
                          link_utilization) {
  using T = typename Node::value_type;
  const int n = cluster.num_nodes();
  nodes->assign(n, Node{});
  if (background != nullptr && !background->empty() &&
      static_cast<int>(background->cpu_load_us.size()) == n) {
    for (int node = 0; node < n; ++node) {
      Node& s = (*nodes)[node];
      s.cpu_load_us = Add(s.cpu_load_us, T(background->cpu_load_us[node]));
      s.egress_bytes_per_s =
          Add(s.egress_bytes_per_s, T(background->out_bytes_per_s[node]));
      s.memory_mb = Add(s.memory_mb, T(background->memory_mb[node]));
    }
  }
  for (int id = 0; id < query.num_operators(); ++id) {
    const Flow<T>& f = flows[id];
    Node& s = (*nodes)[placement[id]];
    s.hosts_op = true;
    s.cpu_load_us = Add(s.cpu_load_us, f.cpu_load_us);
    s.memory_mb = Add(s.memory_mb, f.state_mb);
    // In-flight queue buffers (~50ms of arrivals).
    s.memory_mb = Add(
        s.memory_mb, Div(Mul(Mul(f.in_rate, T(f.in_bytes)),
                             T(kInflightBufferSeconds)),
                         T(1024.0 * 1024.0)));
  }
  std::vector<T> link_bytes;
  if (has_links) link_bytes.assign(static_cast<size_t>(n) * n, T{});
  for (const auto& [from, to] : query.edges()) {
    if (placement[from] == placement[to]) continue;
    const T bytes = Mul(flows[from].out_rate, T(flows[from].out_bytes));
    Node& s = (*nodes)[placement[from]];
    s.egress_bytes_per_s = Add(s.egress_bytes_per_s, bytes);
    if (has_links) {
      T& link = link_bytes[placement[from] * n + placement[to]];
      link = Add(link, bytes);
    }
  }
  for (int node = 0; node < n; ++node) {
    Node& s = (*nodes)[node];
    if (s.hosts_op) s.memory_mb = Add(s.memory_mb, T(kWorkerBaseMemoryMb));
    const HardwareNode& hw = cluster.nodes[node];
    s.gc_factor = Apply(
        [&hw](double memory_mb) { return GcSlowdown(memory_mb, hw.ram_mb); },
        s.memory_mb);
    const double cores = hw.cpu_pct / 100.0;
    s.cpu_utilization = Div(Div(Mul(s.cpu_load_us, s.gc_factor), T(1e6)),
                            T(std::max(cores, 1e-3)));
    s.net_utilization = Div(Mul(s.egress_bytes_per_s, T(8.0)),
                            T(std::max(hw.bandwidth_mbits * 1e6, 1.0)));
  }
  link_utilization->clear();
  if (!has_links) return;
  // A WAN link saturates independently of the sender's NIC; links that
  // carry no edge stay at zero.
  link_utilization->assign(static_cast<size_t>(n) * n, T{});
  for (const auto& [from, to] : query.edges()) {
    const int a = placement[from];
    const int b = placement[to];
    if (a == b) continue;
    (*link_utilization)[a * n + b] =
        Div(Mul(link_bytes[a * n + b], T(8.0)),
            T(std::max(cluster.LinkBandwidthMbits(a, b) * 1e6, 1.0)));
  }
}

}  // namespace costream::sim

#endif  // COSTREAM_SIM_FLOW_KERNEL_H_
