// Randomized arrive/depart churn sweep over the multi-tenant placement
// service: the ClusterLoadLedger's invariants must hold after every event —
// the aggregated demand equals the sum of the live placements' loads, a
// retired query exactly restores the pre-admission ledger state, and no node
// is left overflowed at convergence. A bare-ledger reference test drives the
// maintained total through appends, mid-order retirements and re-admissions
// across several prefix-checkpoint strides against a from-scratch sum.
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "service/placement_service.h"
#include "sim/fluid_engine.h"
#include "workload/corpus.h"

namespace costream::service {
namespace {

sim::Cluster RoomyCluster() {
  sim::Cluster cluster;
  cluster.nodes.push_back({400.0, 64000.0, 1000.0, 5.0});
  cluster.nodes.push_back({300.0, 64000.0, 800.0, 10.0});
  cluster.nodes.push_back({200.0, 64000.0, 400.0, 20.0});
  cluster.nodes.push_back({600.0, 64000.0, 2000.0, 2.0});
  return cluster;
}

// Light event rates keep a few dozen concurrent queries well inside the
// cluster's capacity, so the post-churn convergence check is meaningful.
workload::GeneratorConfig LightWorkload() {
  workload::GeneratorConfig config;
  config.workload.event_rate_linear = {100, 200, 400};
  config.workload.event_rate_two_way = {50, 100};
  config.workload.event_rate_three_way = {20, 50};
  config.workload.window_count_sizes = {5, 10, 20};
  config.workload.window_time_sizes = {0.25, 0.5, 1};
  return config;
}

core::Ensemble TinyThroughputEnsemble(uint64_t seed) {
  workload::CorpusConfig cc;
  cc.num_queries = 50;
  cc.seed = seed;
  cc.duration_s = 30.0;
  const auto records = workload::BuildCorpus(cc);
  core::CostModelConfig config;
  config.hidden_dim = 8;
  core::Ensemble ensemble(config, 1);
  auto samples = workload::ToTrainSamples(records, sim::Metric::kThroughput);
  core::TrainConfig tc;
  tc.epochs = 3;
  ensemble.Train(samples, {}, tc);
  return ensemble;
}

ServiceConfig FastConfig() {
  ServiceConfig config;
  config.target = sim::Metric::kThroughput;
  config.num_candidates = 8;
  config.seed = 11;
  config.num_threads = 1;
  return config;
}

TEST(ServiceChurnTest, LedgerInvariantsHoldAfterEveryEvent) {
  const core::Ensemble target = TinyThroughputEnsemble(21);
  PlacementService service(RoomyCluster(), &target, nullptr, nullptr,
                           FastConfig());
  workload::QueryGenerator generator(LightWorkload());
  nn::Rng rng(77);

  std::vector<int64_t> live;
  int admissions = 0;
  int retirements = 0;
  constexpr int kEvents = 220;
  for (int e = 0; e < kEvents; ++e) {
    const bool admit = live.empty() || rng.Uniform(0.0, 1.0) < 0.55;
    if (admit) {
      const auto t = static_cast<workload::QueryTemplate>(rng.Int(0, 2));
      const dsps::QueryGraph query = generator.Generate(t, rng);
      const AdmitResult result = service.Admit(query);
      ASSERT_GE(result.id, 0);
      ASSERT_EQ(sim::ValidatePlacement(query, service.ledger().cluster(),
                                       result.placement),
                "");
      ASSERT_GT(result.candidates_evaluated, 0);
      live.push_back(result.id);
      ++admissions;
    } else {
      const size_t pick = static_cast<size_t>(
          rng.Int(0, static_cast<int>(live.size()) - 1));
      ASSERT_TRUE(service.Retire(live[pick]));
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      ++retirements;
    }
    ASSERT_EQ(service.ledger().CheckInvariants(), "") << "event " << e;
    ASSERT_EQ(service.live_queries(), static_cast<int>(live.size()));

    // Every stored per-query load must equal the placement's freshly
    // recomputed steady-state demand (bitwise: ComputeBackgroundLoad is
    // noiseless and deterministic).
    if (e % 20 == 19) {
      for (const int64_t id : live) {
        const sim::BackgroundLoad expected = sim::ComputeBackgroundLoad(
            service.QueryOf(id), service.ledger().cluster(),
            service.PlacementOf(id));
        const sim::BackgroundLoad& stored = service.ledger().LoadOf(id);
        for (int n = 0; n < service.ledger().num_nodes(); ++n) {
          ASSERT_EQ(stored.cpu_load_us[n], expected.cpu_load_us[n]);
          ASSERT_EQ(stored.out_bytes_per_s[n], expected.out_bytes_per_s[n]);
          ASSERT_EQ(stored.memory_mb[n], expected.memory_mb[n]);
        }
      }
    }
  }
  EXPECT_EQ(admissions + retirements, kEvents);
  EXPECT_GT(admissions, 100);
  EXPECT_GT(retirements, 50);

  // Post-churn convergence: this fixture is well inside capacity, so the
  // rip-up loop must end with no overflowed node.
  const ConvergeResult converge = service.Converge();
  EXPECT_TRUE(converge.converged);
  EXPECT_TRUE(service.ledger().OverflowedNodes().empty());
  EXPECT_EQ(service.ledger().CheckInvariants(), "");
}

TEST(ServiceChurnTest, RetireExactlyRestoresLedgerState) {
  const core::Ensemble target = TinyThroughputEnsemble(22);
  PlacementService service(RoomyCluster(), &target, nullptr, nullptr,
                           FastConfig());
  workload::QueryGenerator generator(LightWorkload());
  nn::Rng rng(101);

  // A few resident queries so the restored state is non-trivial.
  for (int i = 0; i < 3; ++i) {
    service.Admit(generator.Generate(workload::QueryTemplate::kLinear, rng));
  }
  const sim::BackgroundLoad before = service.ledger().TotalLoad();
  const int live_before = service.live_queries();

  const AdmitResult admitted = service.Admit(
      generator.Generate(workload::QueryTemplate::kTwoWayJoin, rng));
  ASSERT_EQ(service.live_queries(), live_before + 1);
  ASSERT_TRUE(service.Retire(admitted.id));

  const sim::BackgroundLoad after = service.ledger().TotalLoad();
  ASSERT_EQ(service.live_queries(), live_before);
  ASSERT_EQ(before.empty(), after.empty());
  for (int n = 0; n < service.ledger().num_nodes(); ++n) {
    // Bitwise: totals are recomputed from the live set in id order, so the
    // admit/retire round trip cannot leave floating-point residue.
    EXPECT_EQ(before.cpu_load_us[n], after.cpu_load_us[n]);
    EXPECT_EQ(before.out_bytes_per_s[n], after.out_bytes_per_s[n]);
    EXPECT_EQ(before.memory_mb[n], after.memory_mb[n]);
  }
  EXPECT_EQ(service.ledger().CheckInvariants(), "");
}

TEST(ServiceChurnTest, RetireUnknownIdIsRejected) {
  const core::Ensemble target = TinyThroughputEnsemble(23);
  PlacementService service(RoomyCluster(), &target, nullptr, nullptr,
                           FastConfig());
  EXPECT_FALSE(service.Retire(123));
  workload::QueryGenerator generator(LightWorkload());
  nn::Rng rng(5);
  const AdmitResult result = service.Admit(
      generator.Generate(workload::QueryTemplate::kLinear, rng));
  EXPECT_TRUE(service.Retire(result.id));
  EXPECT_FALSE(service.Retire(result.id));  // double retire
}

TEST(LoadLedgerTest, UtilizationAndOverflowTrackDemand) {
  sim::Cluster cluster;
  cluster.nodes.push_back({100.0, 4000.0, 100.0, 5.0});  // 1 core
  cluster.nodes.push_back({100.0, 4000.0, 100.0, 5.0});
  ClusterLoadLedger ledger(cluster);
  EXPECT_EQ(ledger.NodeUtilization(0), 0.0);
  EXPECT_TRUE(ledger.OverflowedNodes().empty());

  sim::BackgroundLoad load;
  load.cpu_load_us = {1.5e6, 0.25e6};  // node 0: 1.5 cores on a 1-core node
  load.out_bytes_per_s = {0.0, 0.0};
  load.memory_mb = {100.0, 100.0};
  ledger.Admit(7, load);
  EXPECT_NEAR(ledger.NodeUtilization(0), 1.5, 1e-12);
  EXPECT_NEAR(ledger.NodeUtilization(1), 0.25, 1e-12);
  EXPECT_EQ(ledger.OverflowedNodes(), std::vector<int>{0});

  // Repricing escalates: history accumulates while the node stays overflowed
  // and the penalty is monotonically increasing.
  EXPECT_EQ(ledger.NodePenalty(0), 1.0);
  ledger.UpdateCongestion();
  const double p1 = ledger.NodePenalty(0);
  EXPECT_GT(p1, 1.0);
  ledger.UpdateCongestion();
  const double p2 = ledger.NodePenalty(0);
  EXPECT_GT(p2, p1);
  EXPECT_EQ(ledger.history(0), 2);
  EXPECT_GT(ledger.overflow_count(0), 0);
  EXPECT_EQ(ledger.NodePenalty(1), 1.0);

  // Retiring the only query clears demand; congestion state clears on reset.
  EXPECT_TRUE(ledger.Retire(7));
  EXPECT_EQ(ledger.NodeUtilization(0), 0.0);
  ledger.UpdateCongestion();
  EXPECT_GT(ledger.NodePenalty(0), 1.0);  // history persists across iterations
  ledger.ResetCongestion();
  EXPECT_EQ(ledger.NodePenalty(0), 1.0);
}

// The ledger's prefix-checkpoint stride (kCheckpointStride in
// load_ledger.cc). The reference test also sweeps every live count from
// above 4 * kStride down to 0, so it covers the stride boundaries even if
// the constant changes.
constexpr int kStride = 32;

// Non-negative loads spanning several orders of magnitude, so the order of
// the additions shows in the low bits of the sums.
sim::BackgroundLoad RandomLoad(int nodes, nn::Rng& rng) {
  sim::BackgroundLoad load;
  for (int n = 0; n < nodes; ++n) {
    const double scale = std::pow(10.0, rng.Int(-3, 6));
    load.cpu_load_us.push_back(rng.Uniform(0.0, 1.0) * scale);
    load.out_bytes_per_s.push_back(rng.Uniform(0.0, 1.0) * scale);
    load.memory_mb.push_back(n == 0 ? 0.0 : rng.Uniform(0.0, 1.0) * scale);
  }
  return load;
}

// Drives a bare ledger alongside a test-local id -> load map and checks the
// maintained total against the map's ascending-id sum after every event.
class LedgerReference {
 public:
  explicit LedgerReference(const sim::Cluster& cluster) : ledger_(cluster) {}

  void Admit(int64_t id, nn::Rng& rng) {
    const sim::BackgroundLoad load = RandomLoad(ledger_.num_nodes(), rng);
    ledger_.Admit(id, load);
    live_[id] = load;
    Check("admit " + std::to_string(id));
  }
  void Retire(int64_t id) {
    ASSERT_TRUE(ledger_.Retire(id));
    live_.erase(id);
    Check("retire " + std::to_string(id));
  }
  // The id at rank `k` of the live set, ascending.
  int64_t IdAt(size_t k) const { return std::next(live_.begin(), k)->first; }
  int live() const { return static_cast<int>(live_.size()); }
  const ClusterLoadLedger& ledger() const { return ledger_; }

 private:
  void Check(const std::string& event) {
    sim::BackgroundLoad expected;
    for (const auto& [id, load] : live_) {
      sim::AccumulateBackgroundLoad(load, ledger_.num_nodes(), &expected);
    }
    const sim::BackgroundLoad& total = ledger_.TotalLoad();
    ASSERT_EQ(ledger_.live_queries(), live());
    ASSERT_EQ(total.empty(), expected.empty()) << event;
    for (size_t n = 0; n < expected.cpu_load_us.size(); ++n) {
      EXPECT_EQ(total.cpu_load_us[n], expected.cpu_load_us[n]) << event;
      EXPECT_EQ(total.out_bytes_per_s[n], expected.out_bytes_per_s[n])
          << event;
      EXPECT_EQ(total.memory_mb[n], expected.memory_mb[n]) << event;
    }
    ASSERT_EQ(ledger_.CheckInvariants(), "") << event;
  }

  ClusterLoadLedger ledger_;
  std::map<int64_t, sim::BackgroundLoad> live_;
};

TEST(LoadLedgerTest, MaintainedTotalMatchesAscendingIdSum) {
  const sim::Cluster cluster = RoomyCluster();
  LedgerReference ref(cluster);
  nn::Rng rng(4242);

  // Appends past four checkpoint strides.
  int64_t next_id = 0;
  while (ref.live() < 4 * kStride + 9) ref.Admit(next_id++, rng);

  // Retire the oldest, the newest and a middle tenant.
  ref.Retire(ref.IdAt(0));
  ref.Retire(ref.IdAt(ref.live() - 1));
  ref.Retire(ref.IdAt(ref.live() / 2));

  // The rip-up pattern: retire a tenant, re-admit the same (older) id with a
  // new load — including ids right at checkpoint boundaries.
  for (const size_t k : {size_t{0}, size_t{kStride - 1}, size_t{kStride},
                         size_t{2 * kStride + 1}}) {
    const int64_t id = ref.IdAt(k);
    ref.Retire(id);
    ref.Admit(id, rng);
  }
  for (int i = 0; i < 30; ++i) {
    const int64_t id =
        ref.IdAt(static_cast<size_t>(rng.Int(0, ref.live() - 1)));
    ref.Retire(id);
    ref.Admit(id, rng);
  }

  // Mixed churn: fresh appends and random retirements.
  for (int e = 0; e < 80; ++e) {
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      ref.Admit(next_id++, rng);
    } else {
      ref.Retire(ref.IdAt(static_cast<size_t>(rng.Int(0, ref.live() - 1))));
    }
  }
  ASSERT_GT(ref.live(), kStride + 1);

  // Live counts of K + 1, K and K - 1, then back up across the boundary by
  // re-admitting older ids below the newest one.
  std::vector<int64_t> retired;
  while (ref.live() > kStride - 1) {
    retired.push_back(ref.IdAt(static_cast<size_t>(ref.live() / 3)));
    ref.Retire(retired.back());
  }
  for (int i = 0; i < 3; ++i) {
    ref.Admit(retired.back(), rng);
    retired.pop_back();
  }
  ASSERT_EQ(ref.live(), kStride + 2);

  // Retire everyone: the total is empty again and the loaded view is the
  // bare cluster.
  while (ref.live() > 0) {
    ref.Retire(ref.IdAt(static_cast<size_t>(rng.Int(0, ref.live() - 1))));
  }
  EXPECT_TRUE(ref.ledger().TotalLoad().empty());
  const sim::Cluster view = ref.ledger().LoadedView();
  ASSERT_EQ(view.num_nodes(), cluster.num_nodes());
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(view.nodes[n].cpu_pct, cluster.nodes[n].cpu_pct);
    EXPECT_EQ(view.nodes[n].ram_mb, cluster.nodes[n].ram_mb);
    EXPECT_EQ(view.nodes[n].bandwidth_mbits, cluster.nodes[n].bandwidth_mbits);
    EXPECT_EQ(view.nodes[n].latency_ms, cluster.nodes[n].latency_ms);
  }
}

}  // namespace
}  // namespace costream::service
