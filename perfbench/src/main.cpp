// perfbench entry point.
//
//   perfbench --workload=scf-water4|fock-alkane20|des-sweep --seed=N
//             --seconds=S --trace=0|1 [--water-seed=N] [--density-seed=N]
//             [--trace-out=PATH]
//
// perfbench/run.py builds this binary and passes the benchmark's arguments
// through. Exit status is 0 when the workload ran (whatever its checks
// found); a bad argument or an exception exits 1 before the result line.

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "obs/trace.h"
#include "perfbench.h"
#include "util/cli.h"

namespace {

std::uint64_t parse_seed(const mf::CliArgs& cli, const char* flag,
                         std::uint64_t def) {
  if (!cli.has(flag)) return def;
  const std::string text = cli.get(flag);
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size()) {
    throw std::invalid_argument(std::string("--") + flag + ": not a seed: " + text);
  }
  return v;
}

perfbench::Args parse(int argc, char** argv) {
  const mf::CliArgs cli(argc, argv,
                        {"workload", "seed", "seconds", "trace", "water-seed",
                         "density-seed", "trace-out"});
  perfbench::Args args;
  args.workload = cli.get("workload");
  args.seed = parse_seed(cli, "seed", args.seed);
  args.water_seed = parse_seed(cli, "water-seed", perfbench::kDefaultWaterSeed);
  args.density_seed = parse_seed(cli, "density-seed", args.seed);
  args.seconds = cli.get_double("seconds", args.seconds);
  const std::string trace = cli.get("trace", "0");
  args.trace = trace == "1";
  args.trace_out = cli.get("trace-out");
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 3600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 3600]");
  }
  return args;
}

void print_json(const perfbench::Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.checks.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.checks.attempted()),
              static_cast<unsigned long long>(result.checks.failed()));
  const char* sep = "";
  for (const auto& e : result.metrics.entries()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                e.name.c_str(), e.value, e.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = parse(argc, argv);
    perfbench::Result (*run)(const perfbench::Args&) = nullptr;
    if (args.workload == "scf-water4") run = perfbench::run_scf_water4;
    if (args.workload == "fock-alkane20") run = perfbench::run_fock_alkane20;
    if (args.workload == "des-sweep") run = perfbench::run_des_sweep;
    if (run == nullptr) {
      throw std::invalid_argument("unknown --workload '" + args.workload +
                                  "' (scf-water4, fock-alkane20, des-sweep)");
    }
    std::printf("workload %s | seed %llu | water seed %llu | density seed %llu "
                "| %zu ranks | %s\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.water_seed),
                static_cast<unsigned long long>(args.density_seed),
                perfbench::ranks(), args.trace ? "traced" : "timed");
    std::fflush(stdout);
    const perfbench::Result result = run(args);

    std::printf("%-40s %22s  %s\n", "metric", "value", "unit");
    for (const auto& e : result.metrics.entries()) {
      if (!std::isfinite(e.value)) {
        throw std::runtime_error("metric " + e.name + " is not finite");
      }
      std::printf("%-40s %22.10g  %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
    const double attempted = static_cast<double>(result.checks.attempted());
    std::printf("error_rate %.6g (%llu of %llu operations failed a check)\n",
                static_cast<double>(result.checks.failed()) / attempted,
                static_cast<unsigned long long>(result.checks.failed()),
                static_cast<unsigned long long>(result.checks.attempted()));
    if (args.trace && !args.trace_out.empty()) {
      if (!mf::obs::write_chrome_trace(args.trace_out)) {
        throw std::runtime_error("cannot write " + args.trace_out);
      }
      std::printf("trace: %s (%llu spans)\n", args.trace_out.c_str(),
                  static_cast<unsigned long long>(mf::obs::trace_event_count()));
    }
    print_json(result);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
