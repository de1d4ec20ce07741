// perfbench: the repo benchmark (perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// Runs one workload in this process: set-up (several times, median
// reported as setup_s), an untimed warm-up, the timed phase, and the
// output checks.  The last line of stdout is the result JSON; --trace 1
// repeats the timed phase with span tracing on, reports the per-layer
// metrics instead of the end-to-end ones and writes a Chrome trace file.
// Exit status: 0 on a correct run, 1 when an output check failed (the
// result line still prints), 2 on any other error (no result line).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Set-up repeats until at least kMinSetups have run and kMinSetupSeconds
/// have passed; setup_s is the median of these repeats.  The first
/// set-up, which also pays the process's cold start, runs before them and
/// is reported on its own (harness.cold_setup_s), so every repeat in the
/// median is timed the same way.
constexpr std::size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 5.0;

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* span;  ///< median of this span's durations, or nullptr
  double scale;      ///< span ms -> metric unit
};

/// Every per-layer metric, reported on every workload (0 = the layer is
/// not called on that workload).
const std::vector<MetricSpec>& layer_catalog() {
  static const std::vector<MetricSpec> catalog = {
      {"data.synth_s", "s", "data.synth", 1e-3},
      {"snn.calibrate_s", "s", "snn.calibrate", 1e-3},
      {"snn.simulate_ms", "ms", "snn.simulate", 1.0},
      {"snn.presentations", "count", nullptr, 0},
      {"snn.spikes_per_presentation", "count", nullptr, 0},
      {"snn.input_sparsity", "ratio", nullptr, 0},
      {"snn.mean_activity", "ratio", nullptr, 0},
      {"api.batch_simulate_s", "s", "api.batch_simulate", 1e-3},
      {"api.batch_replay_s", "s", "api.batch_replay", 1e-3},
      {"common.pool_efficiency", "ratio", nullptr, 0},
      {"compile.paper_ms", "ms", "compile.paper", 1.0},
      {"compile.search_ms", "ms", "compile.search", 1.0},
      {"verify.verify_ms", "ms", "verify.verify", 1.0},
      {"verify.load_ms", "ms", "verify.load", 1.0},
      {"core.replay_ms", "ms", "core.replay", 1.0},
      {"noc.event_replay_ms", "ms", "noc.event_replay", 1.0},
      {"cmos.replay_ms", "ms", "cmos.replay", 1.0},
      {"serve.submit_p99_us", "us", nullptr, 0},
      {"serve.queue_p50_ms", "ms", nullptr, 0},
      {"serve.queue_p99_ms", "ms", nullptr, 0},
      {"serve.batch_p50_ms", "ms", nullptr, 0},
      {"serve.batch_p99_ms", "ms", nullptr, 0},
      {"serve.overhead_ms", "ms", nullptr, 0},
      {"serve.latency_p90_ms", "ms", nullptr, 0},
      {"serve.latency_p99_ms", "ms", nullptr, 0},
      {"serve.batch_size_mean", "count", nullptr, 0},
      {"serve.rejected", "count", nullptr, 0},
      {"harness.gen_lag_p99_ms", "ms", nullptr, 0},
      {"harness.trace_overhead_pct", "%", nullptr, 0},
      {"harness.cold_setup_s", "s", nullptr, 0},
      {"core.energy_pj", "pJ", nullptr, 0},
      {"core.energy.neuron_pj", "pJ", nullptr, 0},
      {"core.energy.crossbar_pj", "pJ", nullptr, 0},
      {"core.energy.peripherals_pj", "pJ", nullptr, 0},
      {"core.latency_ns", "ns", nullptr, 0},
      {"core.cycles_compute", "cycles", nullptr, 0},
      {"core.cycles_transport", "cycles", nullptr, 0},
      {"noc.cycles_stall", "cycles", nullptr, 0},
      {"core.mcas", "count", nullptr, 0},
      {"cmos.energy_pj", "pJ", nullptr, 0},
  };
  return catalog;
}

[[noreturn]] void usage(const std::string& why) {
  throw BenchError(why +
                   "\nusage: perfbench --workload <serve-cnn-image|"
                   "sweep-cnn-dim> --seed <n> --seconds <s> --trace <0|1> "
                   "[--out-dir <dir>] [--commit <id>]");
}

struct Args {
  Options options;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.options.out_dir = "bench_output/perfbench";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.options.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.options.out_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!(args.options.seconds > 0.0 && args.options.seconds <= 600.0))
    usage("--seconds must be in (0, 600]");
  return args;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "serve-cnn-image") return make_serve_cnn_image(options);
  if (options.workload == "sweep-cnn-dim") return make_sweep_cnn_dim(options);
  usage("unknown workload " + options.workload);
}

std::string facts_json(const HostFacts& facts, const Args& args) {
  std::ostringstream os;
  os << "{\"workload\": " << json_str(args.options.workload)
     << ", \"seed\": " << args.options.seed
     << ", \"seconds\": " << json_num(args.options.seconds)
     << ", \"trace\": " << (args.options.trace ? 1 : 0)
     << ", \"cores\": " << facts.cores
     << ", \"cpu_model\": " << json_str(facts.cpu_model)
     << ", \"build_type\": " << json_str(facts.build_type)
     << ", \"compiler\": " << json_str(facts.compiler)
     << ", \"commit\": " << json_str(args.commit) << "}";
  return os.str();
}

/// Prints the per-phase self-time table and the layer with the largest
/// self time over the whole run.
void print_self_times(const std::vector<Span>& spans) {
  const auto table = self_time_by_layer(spans);
  std::map<std::string, double> total;
  std::printf("self time by layer (ms, traced run):\n");
  for (const auto& [phase, layers] : table) {
    std::vector<std::pair<double, std::string>> rows;
    for (const auto& [layer, ms] : layers) {
      rows.emplace_back(ms, layer);
      total[layer] += ms;
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("  %-7s", phase.c_str());
    for (const auto& [ms, layer] : rows)
      std::printf("  %s %.3f", layer.c_str(), ms);
    std::printf("\n");
  }
  std::string top;
  double top_ms = -1.0;
  for (const auto& [layer, ms] : total)
    if (ms > top_ms) {
      top_ms = ms;
      top = layer;
    }
  std::printf("  largest self time: %s (%.3f ms of %zu spans)\n", top.c_str(),
              top_ms, spans.size());
}

void require_positive(const Metric& m) {
  if (!std::isfinite(m.value) || !(m.value > 0.0))
    throw BenchError("metric " + m.name + " is not a positive finite number (" +
                     std::to_string(m.value) + ")");
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Options& options = args.options;
  const HostFacts facts = host_facts();
  if (facts.build_type != "Release" || facts.assertions)
    throw BenchError("refusing to report from a non-Release build (" +
                     facts.build_type + ")");
  std::filesystem::create_directories(options.out_dir);

  std::unique_ptr<Workload> workload = make_workload(options);
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(options.trace);

  // The cold set-up, from process start, then the timed repeats.
  tracer.set_phase(Phase::kSetup);
  workload->setup();
  const double cold_setup_s = seconds_since_start();
  std::vector<double> setup_s;
  while (setup_s.size() < kMinSetups ||
         seconds_since_start() - cold_setup_s < kMinSetupSeconds) {
    const double start = seconds_since_start();
    workload->setup();
    setup_s.push_back(seconds_since_start() - start);
  }

  tracer.set_enabled(false);
  workload->warmup();
  std::vector<PhaseFigures> phases{workload->timed(0)};
  const double rss_mb = peak_rss_mb();
  if (options.trace) {
    tracer.set_enabled(true);
    phases.push_back(workload->timed(1));
  }

  Result result;
  for (const PhaseFigures& f : phases) {
    result.attempted += f.attempted;
    if (f.failed > 0)
      result.fail(std::to_string(f.failed) + " requests rejected or failed",
                  f.failed);
  }
  workload->check(result);

  const PhaseFigures& untraced = phases.front();
  result.e2e("setup_s", median(setup_s), "s");
  result.e2e("latency_p50_ms", untraced.latency_p50_ms, "ms");
  result.e2e("throughput_rps", untraced.throughput_rps, "1/s");
  result.e2e("peak_rss_mb", rss_mb, "MiB");
  for (const Metric& m : result.end_to_end) require_positive(m);

  const std::string facts_str = facts_json(facts, args);
  std::printf("host: %s\n", facts_str.c_str());
  std::printf("setup_s: median %.6f of %zu set-ups after a cold one of %.6f:",
              median(setup_s), setup_s.size(), cold_setup_s);
  for (const double s : setup_s) std::printf(" %.6f", s);
  std::printf("\n");
  for (std::size_t p = 0; p < phases.size(); ++p)
    std::printf("%s phase: %s\n", p == 0 ? "untraced" : "traced",
                phases[p].summary.c_str());
  std::printf("error_rate: %.6g (%llu of %llu)\n",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& failure : result.failures)
    std::printf("CHECK FAILED: %s\n", failure.c_str());

  if (options.trace) {
    tracer.set_enabled(false);
    const std::vector<Span> spans = tracer.spans();
    LayerValues values;
    for (const MetricSpec& spec : layer_catalog())
      if (spec.span != nullptr)
        values[spec.name] = median(span_ms(spans, spec.span)) * spec.scale;
    workload->layer_values(spans, values);
    const PhaseFigures& traced_phase = phases.back();
    const double overhead_pct =
        (traced_phase.latency_p50_ms / untraced.latency_p50_ms - 1.0) * 100.0;
    values["harness.trace_overhead_pct"] = overhead_pct;
    values["harness.cold_setup_s"] = cold_setup_s;
    std::printf("tracing overhead: latency_p50 %+.2f%%, throughput %+.2f%%\n",
                overhead_pct,
                (traced_phase.throughput_rps / untraced.throughput_rps - 1.0) *
                    100.0);
    for (const MetricSpec& spec : layer_catalog()) {
      const double v = values.count(spec.name) ? values[spec.name] : 0.0;
      if (!std::isfinite(v))
        throw BenchError(std::string("metric ") + spec.name + " is not finite");
      result.layer(spec.name, v, spec.unit);
    }
    print_self_times(spans);
    const std::string trace_path = options.out_dir + "/trace-" +
                                   options.workload + "-seed" +
                                   std::to_string(options.seed) + ".json";
    write_chrome_trace(trace_path, spans, facts_str);
    std::printf("trace file: %s\n", trace_path.c_str());
  }

  // The full result with its host facts, next to the trace file.
  {
    const std::string path = options.out_dir + "/result-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             (options.trace ? "-trace" : "") + ".json";
    std::ofstream os(path);
    os << "{\"host\": " << facts_str << ",\n\"result\": ";
    print_result_line(os, result, options.trace);
    os << "}\n";
  }
  workload.reset();
  std::filesystem::remove_all(options.out_dir + "/cache");
  std::fflush(stdout);
  print_result_line(std::cout, result, options.trace);
  std::cout.flush();
  return result.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const BenchError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: unexpected error: %s\n", e.what());
  }
  return 2;
}
