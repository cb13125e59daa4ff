#include "placement/enumeration.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"

namespace costream::placement {

namespace {

using dsps::QueryGraph;
using sim::Cluster;
using sim::Placement;

// Nodes on any source->op path for each operator, given a (partial)
// placement; used to enforce the acyclicity rule.
std::vector<std::set<int>> PathNodes(const QueryGraph& query,
                                     const Placement& placement,
                                     const std::vector<int>& topo) {
  std::vector<std::set<int>> path(query.num_operators());
  for (int id : topo) {
    if (placement[id] < 0) break;  // partial placement: later ops unassigned
    for (int up : query.Upstream(id)) {
      path[id].insert(path[up].begin(), path[up].end());
    }
    path[id].insert(placement[id]);
  }
  return path;
}

// Rules 2 and 3 for a placement that passed sim::ValidatePlacement, against
// the cluster's capability bins and the query's topological order, both
// precomputed by the caller (an enumeration checks every sampled candidate
// against the same two).
std::string CheckBinAndPathRules(const QueryGraph& query,
                                 const Placement& placement,
                                 const std::vector<int>& bins,
                                 const std::vector<int>& topo) {
  // Rule 2: non-decreasing capability bins along the data flow.
  for (const auto& [from, to] : query.edges()) {
    if (bins[placement[to]] < bins[placement[from]]) {
      return "capability bin decreases along the data flow";
    }
  }
  // Rule 3: data never returns to a node it has left.
  const std::vector<std::set<int>> path = PathNodes(query, placement, topo);
  for (const auto& [from, to] : query.edges()) {
    if (placement[to] == placement[from]) continue;  // co-location: no hop
    // The downstream node must not appear anywhere on the upstream path
    // (other than as the immediate sender, which the check above excludes).
    if (path[from].count(placement[to]) > 0) {
      return "data returns to a previously visited node";
    }
  }
  return "";
}

// SamplePlacement with the query's topological order precomputed.
Placement Sample(const QueryGraph& query, const Cluster& cluster,
                 const std::vector<int>& bins, const std::vector<int>& topo,
                 nn::Rng& rng) {
  Placement placement(query.num_operators(), -1);
  std::vector<std::set<int>> path(query.num_operators());

  for (int id : topo) {
    const std::vector<int> upstream = query.Upstream(id);
    int min_bin = 0;
    // A node is forbidden if any incoming branch has already visited and
    // left it (acyclicity rule). Staying co-located with a branch's sender
    // is fine for that branch, but the other branch of a join may still
    // forbid the node.
    std::set<int> forbidden;
    for (int up : upstream) {
      min_bin = std::max(min_bin, bins[placement[up]]);
      for (int visited : path[up]) {
        if (visited != placement[up]) forbidden.insert(visited);
      }
    }

    std::vector<int> admissible;
    for (int n = 0; n < cluster.num_nodes(); ++n) {
      if (bins[n] < min_bin) continue;
      if (forbidden.count(n) > 0) continue;
      admissible.push_back(n);
    }
    int chosen;
    if (!admissible.empty()) {
      chosen = rng.Choice(admissible);
    } else {
      // Fall back to co-locating with the strongest sender (always legal).
      COSTREAM_CHECK(!upstream.empty());
      chosen = placement[upstream[0]];
      for (int up : upstream) {
        if (bins[placement[up]] > bins[chosen]) chosen = placement[up];
      }
    }
    placement[id] = chosen;
    for (int up : upstream) {
      path[id].insert(path[up].begin(), path[up].end());
    }
    path[id].insert(chosen);
  }
  return placement;
}

}  // namespace

std::vector<int> CapabilityBins(const Cluster& cluster, int num_bins) {
  COSTREAM_CHECK(num_bins >= 1);
  COSTREAM_CHECK(cluster.num_nodes() >= 1);
  std::vector<double> score(cluster.num_nodes());
  std::vector<int> order(cluster.num_nodes());
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    score[i] = sim::CapabilityScore(cluster.nodes[i]);
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return score[a] < score[b]; });
  std::vector<int> bins(cluster.num_nodes(), 0);
  for (int rank = 0; rank < cluster.num_nodes(); ++rank) {
    bins[order[rank]] =
        std::min(num_bins - 1, rank * num_bins / cluster.num_nodes());
  }
  return bins;
}

std::string CheckPlacementRules(const QueryGraph& query, const Cluster& cluster,
                                const Placement& placement, int num_bins) {
  const std::string base = sim::ValidatePlacement(query, cluster, placement);
  if (!base.empty()) return base;
  return CheckBinAndPathRules(query, placement,
                              CapabilityBins(cluster, num_bins),
                              query.TopologicalOrder());
}

Placement SamplePlacement(const QueryGraph& query, const Cluster& cluster,
                          const std::vector<int>& bins, nn::Rng& rng) {
  return Sample(query, cluster, bins, query.TopologicalOrder(), rng);
}

std::vector<Placement> EnumerateCandidates(const QueryGraph& query,
                                           const Cluster& cluster,
                                           const EnumerationConfig& config) {
  COSTREAM_CHECK(config.num_candidates >= 1);
  nn::Rng rng(config.seed);
  const std::vector<int> bins = CapabilityBins(cluster, config.num_bins);
  const std::vector<int> topo = query.TopologicalOrder();
  std::set<Placement> seen;
  std::vector<Placement> result;
  // Oversample to compensate for duplicates in small search spaces. Work in
  // fixed-size blocks: a block is sampled serially from the sequential RNG,
  // its rule checks fan out over the workers, and the verdicts are consumed
  // in sample order — candidate sampling never depends on acceptance, so the
  // returned set matches the one-at-a-time scan exactly.
  const int attempts = config.num_candidates * 8;
  const int block = config.num_candidates;
  std::vector<Placement> sampled;
  std::vector<char> conforming;
  for (int done = 0; done < attempts && static_cast<int>(result.size()) <
                                            config.num_candidates;
       done += block) {
    const int n = std::min(block, attempts - done);
    sampled.clear();
    for (int i = 0; i < n; ++i) {
      sampled.push_back(Sample(query, cluster, bins, topo, rng));
    }
    conforming.assign(n, 0);
    common::ParallelFor(config.num_threads, n, [&](int i) {
      // The sampler may fall back to a rule-breaking co-location in
      // pathological join merges; enumeration only returns conforming
      // candidates.
      conforming[i] =
          sim::ValidatePlacement(query, cluster, sampled[i]).empty() &&
          CheckBinAndPathRules(query, sampled[i], bins, topo).empty();
    });
    for (int i = 0;
         i < n && static_cast<int>(result.size()) < config.num_candidates;
         ++i) {
      if (!conforming[i]) continue;
      if (seen.insert(sampled[i]).second) {
        result.push_back(std::move(sampled[i]));
      }
    }
  }
  if (result.empty()) {
    // Degenerate fallback: everything on the strongest node is always
    // rule-conforming.
    int strongest = 0;
    for (int n = 1; n < cluster.num_nodes(); ++n) {
      if (sim::CapabilityScore(cluster.nodes[n]) >
          sim::CapabilityScore(cluster.nodes[strongest])) {
        strongest = n;
      }
    }
    result.emplace_back(query.num_operators(), strongest);
  }
  return result;
}

}  // namespace costream::placement
