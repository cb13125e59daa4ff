// The placement service must make bitwise-identical decisions regardless of
// how many scorer threads it uses: per-candidate scoring writes into
// per-index slots and selection walks candidates in enumeration order, so a
// seeded churn script replays to the same admissions, the same final
// placements, and the same ledger totals at 1 and 4 threads. A longer
// ramp/churn/rip-up script is also folded into one decision digest pinned to
// its recorded value, so any change to the ledger or the admission path that
// moves a single decision bit fails the suite.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "service/placement_service.h"
#include "sim/fluid_engine.h"
#include "workload/corpus.h"

namespace costream::service {
namespace {

sim::Cluster FixtureCluster() {
  sim::Cluster cluster;
  cluster.nodes.push_back({200.0, 16000.0, 400.0, 20.0});
  cluster.nodes.push_back({400.0, 32000.0, 1000.0, 5.0});
  cluster.nodes.push_back({300.0, 24000.0, 800.0, 10.0});
  cluster.nodes.push_back({600.0, 48000.0, 2000.0, 2.0});
  return cluster;
}

core::Ensemble TinyThroughputEnsemble() {
  workload::CorpusConfig cc;
  cc.num_queries = 50;
  cc.seed = 31;
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

struct ScriptRun {
  std::vector<AdmitResult> admissions;
  std::vector<std::vector<int>> final_placements;  // ascending id order
  ConvergeResult converge;
  sim::BackgroundLoad total;
};

// Replays the same seeded arrive/depart script (the script's randomness is
// independent of the service under test).
ScriptRun RunScript(const core::Ensemble& target, int num_threads) {
  ServiceConfig config;
  config.target = sim::Metric::kThroughput;
  config.num_candidates = 12;
  config.seed = 77;
  config.num_threads = num_threads;

  PlacementService service(FixtureCluster(), &target, nullptr, nullptr,
                           config);
  workload::QueryGenerator generator(workload::GeneratorConfig{});
  nn::Rng rng(909);

  ScriptRun run;
  std::vector<int64_t> live;
  constexpr int kEvents = 60;
  for (int e = 0; e < kEvents; ++e) {
    if (live.empty() || rng.Uniform(0.0, 1.0) < 0.6) {
      const auto t = static_cast<workload::QueryTemplate>(rng.Int(0, 2));
      const dsps::QueryGraph query = generator.Generate(t, rng);
      const AdmitResult result = service.Admit(query);
      run.admissions.push_back(result);
      live.push_back(result.id);
    } else {
      const size_t pick = static_cast<size_t>(
          rng.Int(0, static_cast<int>(live.size()) - 1));
      service.Retire(live[pick]);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
  }
  run.converge = service.Converge();
  for (const int64_t id : service.QueryIds()) {
    run.final_placements.push_back(service.PlacementOf(id));
  }
  run.total = service.ledger().TotalLoad();
  return run;
}

TEST(ServiceDeterminismTest, OneAndFourThreadsAgreeBitwise) {
  const core::Ensemble target = TinyThroughputEnsemble();
  const ScriptRun serial = RunScript(target, 1);
  const ScriptRun parallel = RunScript(target, 4);

  // Every admission decision matches: placement, prediction (bitwise) and
  // feasibility.
  ASSERT_EQ(serial.admissions.size(), parallel.admissions.size());
  for (size_t i = 0; i < serial.admissions.size(); ++i) {
    EXPECT_EQ(serial.admissions[i].id, parallel.admissions[i].id);
    EXPECT_EQ(serial.admissions[i].placement, parallel.admissions[i].placement)
        << "admission " << i;
    EXPECT_EQ(serial.admissions[i].predicted, parallel.admissions[i].predicted);
    EXPECT_EQ(serial.admissions[i].penalized, parallel.admissions[i].penalized);
    EXPECT_EQ(serial.admissions[i].feasible, parallel.admissions[i].feasible);
  }

  // Convergence took the identical trajectory.
  EXPECT_EQ(serial.converge.iterations, parallel.converge.iterations);
  EXPECT_EQ(serial.converge.ripups, parallel.converge.ripups);
  EXPECT_EQ(serial.converge.converged, parallel.converge.converged);

  // Final state matches bitwise.
  ASSERT_EQ(serial.final_placements.size(), parallel.final_placements.size());
  for (size_t i = 0; i < serial.final_placements.size(); ++i) {
    EXPECT_EQ(serial.final_placements[i], parallel.final_placements[i]);
  }
  ASSERT_EQ(serial.total.empty(), parallel.total.empty());
  if (!serial.total.empty()) {
    for (size_t n = 0; n < serial.total.cpu_load_us.size(); ++n) {
      EXPECT_EQ(serial.total.cpu_load_us[n], parallel.total.cpu_load_us[n]);
      EXPECT_EQ(serial.total.out_bytes_per_s[n],
                parallel.total.out_bytes_per_s[n]);
      EXPECT_EQ(serial.total.memory_mb[n], parallel.total.memory_mb[n]);
    }
  }
}

TEST(ServiceDeterminismTest, RerunWithSameThreadsIsIdentical) {
  // Sanity anchor for the cross-thread check: the script itself replays
  // identically when nothing varies.
  const core::Ensemble target = TinyThroughputEnsemble();
  const ScriptRun a = RunScript(target, 1);
  const ScriptRun b = RunScript(target, 1);
  ASSERT_EQ(a.admissions.size(), b.admissions.size());
  for (size_t i = 0; i < a.admissions.size(); ++i) {
    EXPECT_EQ(a.admissions[i].placement, b.admissions[i].placement);
    EXPECT_EQ(a.admissions[i].predicted, b.admissions[i].predicted);
  }
  EXPECT_EQ(a.final_placements, b.final_placements);
}

// Order-sensitive FNV-1a over the exact bit patterns of the folded values
// (the same fold as the oracle sweep's flow digest).
void Fold(uint64_t word, uint64_t* digest) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (word >> (8 * byte)) & 0xff;
    *digest *= 1099511628211ull;
  }
}
void Fold(int64_t v, uint64_t* digest) {
  Fold(static_cast<uint64_t>(v), digest);
}
void Fold(int v, uint64_t* digest) { Fold(static_cast<int64_t>(v), digest); }
void Fold(double v, uint64_t* digest) {
  Fold(std::bit_cast<uint64_t>(v), digest);
}
void Fold(bool v, uint64_t* digest) { Fold(uint64_t{v}, digest); }
template <typename V>
void Fold(const std::vector<V>& values, uint64_t* digest) {
  Fold(uint64_t{values.size()}, digest);
  for (const V& v : values) Fold(v, digest);
}
void Fold(const AdmitResult& r, uint64_t* digest) {
  Fold(r.id, digest);
  Fold(r.placement, digest);
  Fold(r.predicted, digest);
  Fold(r.penalized, digest);
  Fold(r.feasible, digest);
  Fold(r.candidates_evaluated, digest);
}
void Fold(const ConvergeResult& r, uint64_t* digest) {
  Fold(r.iterations, digest);
  Fold(r.ripups, digest);
  Fold(r.converged, digest);
  Fold(r.overflowed_nodes, digest);
}

// Every admission, retirement and rip-up of a script that ramps the tenancy
// past several of the ledger's prefix-checkpoint strides, churns (retiring
// the oldest, the newest and middle tenants, admitting synchronously and
// through the async queue), piles forced placements onto one node and lets
// Converge() rip up and re-admit older ids in the middle of the id order.
TEST(ServiceDeterminismTest, DecisionDigestIsPinned) {
  const core::Ensemble target = TinyThroughputEnsemble();
  ServiceConfig config;
  config.target = sim::Metric::kThroughput;
  config.num_candidates = 8;
  config.seed = 5;
  config.num_threads = 1;
  config.max_iterations = 4;
  sim::Cluster cluster = FixtureCluster();
  cluster.nodes.push_back({100.0, 8000.0, 200.0, 40.0});
  PlacementService service(cluster, &target, nullptr, nullptr, config);
  workload::GeneratorConfig light;
  light.workload.event_rate_linear = {50, 100};
  light.workload.event_rate_two_way = {20, 50};
  light.workload.event_rate_three_way = {10, 20};
  workload::QueryGenerator generator(light);
  nn::Rng rng(2024);
  auto next_query = [&] {
    const auto t = static_cast<workload::QueryTemplate>(rng.Int(0, 2));
    return generator.Generate(t, rng);
  };

  uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  std::vector<int64_t> live;
  auto admit = [&] {
    const AdmitResult result = service.Admit(next_query());
    Fold(result, &digest);
    live.push_back(result.id);
  };
  auto retire_at = [&](size_t pick) {
    ASSERT_TRUE(service.Retire(live[pick]));
    Fold(live[pick], &digest);
    live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
  };

  // Ramp: well past several checkpoint strides.
  for (int i = 0; i < 110; ++i) admit();
  // Churn: the oldest, newest and a middle tenant, then random events.
  retire_at(0);
  retire_at(live.size() - 1);
  retire_at(live.size() / 2);
  for (int e = 0; e < 40; ++e) {
    if (rng.Uniform(0.0, 1.0) < 0.5) {
      admit();
    } else {
      retire_at(static_cast<size_t>(
          rng.Int(0, static_cast<int>(live.size()) - 1)));
    }
  }
  // An async batch: drained against one snapshot.
  for (int i = 0; i < 5; ++i) live.push_back(service.AdmitAsync(next_query()));
  for (const AdmitResult& result : service.DrainAdmissions()) {
    Fold(result, &digest);
  }
  // Pile-up on the weakest node so Converge() has to rip up.
  const dsps::QueryGraph heavy = next_query();
  for (int i = 0; i < 6; ++i) {
    Fold(service
             .AdmitWithPlacement(heavy,
                                 sim::Placement(heavy.num_operators(), 4))
             .id,
         &digest);
  }
  ASSERT_FALSE(service.ledger().OverflowedNodes().empty());
  const ConvergeResult converge = service.Converge();
  EXPECT_GT(converge.ripups, 0);
  Fold(converge, &digest);
  for (const int64_t id : service.QueryIds()) {
    Fold(id, &digest);
    Fold(service.PlacementOf(id), &digest);
  }
  const sim::BackgroundLoad& total = service.ledger().TotalLoad();
  Fold(total.cpu_load_us, &digest);
  Fold(total.out_bytes_per_s, &digest);
  Fold(total.memory_mb, &digest);
  EXPECT_EQ(service.ledger().CheckInvariants(), "");

  EXPECT_EQ(digest, 5486362796040619571ull) << "decision digest moved";
}

}  // namespace
}  // namespace costream::service
