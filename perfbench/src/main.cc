// Repository benchmark entry point:
//
//   costream_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --scratch <dir>
//
// One single-threaded process generates every input from the seed, runs
// one workload pinned to one CPU (the library at one thread; the traced
// run's N-thread legs use min(4, available) CPUs) and
// prints, as its last stdout line, one JSON object with the keys correct,
// attempted, failed and metrics (end-to-end metrics untraced, per-layer
// metrics traced). Any failed check makes the exit code 1.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The first `want` CPUs of the process's affinity set.
std::vector<int> FirstCpus(int want) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE && static_cast<int>(cpus.size()) < want;
       ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  return cpus;
}

int AvailableCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 1;
  return std::max(1, CPU_COUNT(&allowed));
}

void PrintMetrics(const MetricMap& metrics, std::ostringstream& os) {
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    // JSON has no NaN/Inf; a non-finite value is reported as 0 and already
    // counted as a failed check by the caller.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: costream_perfbench --workload "
               "<admit_churn|converge_burst|place_fig09|label_train> "
               "--seed <n> --seconds <s> --trace <0|1> --scratch <dir>\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--scratch") {
      config.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  void (*run)(const RunConfig&, Checks&, WorkloadOutput*) = nullptr;
  if (config.workload == "admit_churn") run = RunAdmitChurn;
  if (config.workload == "converge_burst") run = RunConvergeBurst;
  if (config.workload == "place_fig09") run = RunPlaceFig09;
  if (config.workload == "label_train") run = RunLabelTrain;
  if (run == nullptr || config.scratch_dir.empty() || !(config.seconds > 0.0)) {
    return Usage();
  }

  config.threads = 1;
  config.probe_threads = std::min(4, AvailableCpus());
  config.probe_cpus = FirstCpus(config.probe_threads);
  // The single-threaded workload stays on one CPU, so its caches stay warm
  // and no migration lands in a timing; the traced run's probe widens the
  // set again for its N-thread legs.
  std::vector<int> cpus;
  if (!config.probe_cpus.empty()) cpus.push_back(config.probe_cpus.back());
  if (!PinThisThread(cpus)) {
    cpus.clear();
    config.probe_cpus.clear();
  }

  Checks checks;
  WorkloadOutput out;
  const auto start = Clock::now();
  run(config, checks, &out);
  const double wall_s = SecondsSince(start);

  const MetricMap& metrics = config.trace ? out.per_layer : out.end_to_end;
  for (const auto& [name, m] : metrics) {
    checks.Expect(std::isfinite(m.value), "finite metric " + name);
  }

  std::ostringstream manifest;
  manifest << "{\"workload\": \"" << config.workload
           << "\", \"seed\": " << config.seed
           << ", \"seconds\": " << config.seconds
           << ", \"trace\": " << (config.trace ? 1 : 0)
           << ", \"threads\": " << config.threads
           << ", \"probe_threads\": " << config.probe_threads
           << ", \"workload_cpus\": [";
  for (size_t i = 0; i < cpus.size(); ++i) {
    manifest << (i ? ", " : "") << cpus[i];
  }
  manifest << "], \"probe_cpus\": [";
  for (size_t i = 0; i < config.probe_cpus.size(); ++i) {
    manifest << (i ? ", " : "") << config.probe_cpus[i];
  }
  manifest << "], \"switches\": " << out.switches << ", "
           << costream::bench::KernelContextJson("") << ", \"wall_s\": "
           << wall_s << "}";
  std::string flat = manifest.str();
  for (char& c : flat) {
    if (c == '\n') c = ' ';
  }
  std::printf("[perfbench] manifest %s\n", flat.c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
         << ", \"attempted\": " << std::max<uint64_t>(1, checks.attempted())
         << ", \"failed\": " << checks.failed() << ", \"metrics\": ";
  PrintMetrics(metrics, result);
  result << "}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}
