#include "workloads.h"

#include <sstream>

#include "nn/quantized.h"

namespace perfbench {

wl::GeneratorConfig TenantWorkload(double rate_scale) {
  wl::GeneratorConfig config;
  config.workload.event_rate_linear = {100 * rate_scale, 200 * rate_scale,
                                       400 * rate_scale};
  config.workload.event_rate_two_way = {50 * rate_scale, 100 * rate_scale};
  config.workload.event_rate_three_way = {20 * rate_scale, 50 * rate_scale};
  config.workload.window_count_sizes = {5, 10, 20};
  config.workload.window_time_sizes = {0.25, 0.5, 1};
  return config;
}

void CheckDeployment(const service::PlacementService& svc,
                     const std::string& phase, Checks& checks) {
  for (int64_t id : svc.QueryIds()) {
    checks.Expect(sim::ValidatePlacement(svc.QueryOf(id),
                                         svc.ledger().cluster(),
                                         svc.PlacementOf(id))
                      .empty(),
                  "valid placement after " + phase);
  }
  const std::string ledger = svc.ledger().CheckInvariants();
  checks.Expect(ledger.empty(), "ledger invariants after " + phase + ": " +
                                    ledger);
}

void SetEndToEnd(WorkloadOutput* out, double setup_s,
                 const std::vector<double>& op_ms, double work_per_s) {
  auto& m = out->end_to_end;
  m["setup_s"] = {setup_s, "s"};
  m["op_p50_ms"] = {Median(op_ms), "ms"};
  m["op_p90_ms"] = {Quantile(op_ms, 0.9), "ms"};
  m["work_per_s"] = {work_per_s, "1/s"};
}

std::string SetupBasis() {
  return "median, n=" + std::to_string(kSetupRepetitions);
}

std::string ServiceSwitchesJson(const service::ServiceConfig& config) {
  std::ostringstream os;
  os << "{\"num_candidates\": " << config.num_candidates
     << ", \"interval_pruning\": " << (config.interval_pruning ? "true" : "false")
     << ", \"fast_path\": " << (config.fast_path ? "true" : "false")
     << ", \"candidate_cache\": " << (config.candidate_cache ? "true" : "false")
     << ", \"quantized_ranking\": "
     << (config.quantized_ranking ? "true" : "false") << ", \"quant_kind\": \""
     << costream::nn::ToString(config.quant_kind)
     << "\", \"max_iterations\": " << config.max_iterations << "}";
  return os.str();
}

}  // namespace perfbench
