#include <cstdio>
#include <set>
#include <sstream>

#include "api/backends.hpp"
#include "api/registry.hpp"
#include "common/rng.hpp"
#include "compile/compiler.hpp"
#include "data/synthetic.hpp"
#include "snn/simulator.hpp"
#include "verify/verifier.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace resparc;

namespace {

api::ResparcBackend& as_resparc(api::Accelerator& accelerator) {
  auto* resparc = dynamic_cast<api::ResparcBackend*>(&accelerator);
  if (resparc == nullptr)
    throw BenchError(accelerator.name() + " is not a RESPARC backend");
  return *resparc;
}

core::ResparcConfig chip_config(const std::string& backend_key) {
  return as_resparc(*api::make_accelerator(backend_key)).config();
}

}  // namespace

snn::Network prepare_network(const snn::BenchmarkSpec& spec) {
  // The Pipeline's synthetic-data defaults (noise 0.03, jitter 1.5).
  const data::SyntheticOptions synth{.count = kCalibrationImages,
                                     .seed = kModelSeed,
                                     .noise = 0.03,
                                     .jitter_pixels = 1.5};
  const data::Dataset calibration = traced(
      "data.synth", [&] { return data::make_synthetic(spec.dataset, synth); });

  snn::Network network(spec.topology);
  Rng rng(stream_seed(kModelSeed, 1));
  network.init_random(rng, 1.0f);
  snn::SimConfig config;
  config.timesteps = kTimesteps;
  traced("snn.calibrate", [&] {
    snn::calibrate_thresholds(network, calibration.images, config, rng,
                              kTargetActivity);
  });
  return network;
}

VerifiedProgram compile_verified(const snn::Topology& topology,
                                 const std::string& backend_key,
                                 const std::string& strategy) {
  const compile::Compiler compiler(chip_config(backend_key));
  VerifiedProgram out;
  out.program = traced(strategy == "paper" ? "compile.paper" : "compile.search",
                       [&] { return compiler.compile(topology, strategy); });
  const verify::VerifyReport report = traced("verify.verify", [&] {
    return verify::verify_program(out.program, {.topology = &topology});
  });
  out.ok = report.ok();
  for (const verify::Diagnostic& d : report.diagnostics())
    out.findings.push_back(backend_key + "/" + strategy + ": " + d.to_string());
  return out;
}

void report_findings(const std::vector<const VerifiedProgram*>& programs,
                     Result& result) {
  std::set<std::string> seen;
  for (const VerifiedProgram* p : programs) {
    if (!p->ok) result.fail("a compiled program has verifier errors");
    for (const std::string& line : p->findings)
      if (seen.insert(line).second)
        std::printf("verifier finding: %s\n", line.c_str());
  }
}

bool round_trip(const compile::CompiledProgram& program,
                const std::string& backend_key, std::string* blob_out) {
  std::ostringstream saved;
  program.save(saved);
  const std::string blob = saved.str();
  const core::ResparcConfig config = chip_config(backend_key);
  const compile::CompiledProgram loaded = traced("verify.load", [&] {
    std::istringstream is(blob);
    return compile::CompiledProgram::load(is, config);
  });
  std::ostringstream resaved;
  loaded.save(resaved);
  if (blob_out != nullptr) *blob_out = blob;
  return resaved.str() == blob;
}

std::unique_ptr<api::Accelerator> load_resparc(
    const std::string& key, const snn::Topology& topology,
    const compile::CompiledProgram& program, bool event_noc) {
  api::BackendOptions options;
  if (event_noc) options.noc = noc::Fidelity::kEvent;
  auto accelerator = api::make_accelerator(key, options);
  as_resparc(*accelerator).load_program(topology, program);
  return accelerator;
}

void activity_values(const snn::ActivityTrace& activity, LayerValues& values) {
  std::uint64_t spikes = 0;
  for (const auto& layer : activity.layers) spikes += layer.total_spikes();
  const double n = static_cast<double>(activity.presentations);
  values["snn.presentations"] = n;
  values["snn.spikes_per_presentation"] =
      n > 0 ? static_cast<double>(spikes) / n : 0.0;
  values["snn.input_sparsity"] = activity.input_sparsity();
  values["snn.mean_activity"] = activity.mean_activity();
}

void model_values(const snn::Network& network, snn::DatasetKind dataset,
                  const snn::SimConfig& config, const api::Accelerator& chip,
                  const api::Accelerator& cmos,
                  const compile::CompiledProgram& program,
                  LayerValues& values) {
  const std::uint64_t stream = stream_seed(kModelSeed, 2);
  const data::SyntheticOptions synth{.count = kModelImages,
                                     .seed = stream,
                                     .noise = 0.03,
                                     .jitter_pixels = 1.5};
  const data::Dataset images = data::make_synthetic(dataset, synth);
  snn::Simulator simulator(network, config);
  std::vector<api::ExecutionReport> resparc, cmos_reports;
  for (std::size_t i = 0; i < kModelImages; ++i) {
    Rng rng(stream_seed(stream, i));
    const snn::SimResult sim = simulator.run(images.images[i], rng);
    resparc.push_back(chip.execute(sim.trace));
    cmos_reports.push_back(cmos.execute(sim.trace));
  }
  auto mean = [](const std::vector<api::ExecutionReport>& reports,
                 auto&& field) {
    double sum = 0.0;
    for (const auto& r : reports) sum += field(r);
    return sum / static_cast<double>(reports.size());
  };
  using R = api::ExecutionReport;
  values["core.energy_pj"] = mean(resparc, [](const R& r) { return r.energy_pj; });
  values["core.energy.neuron_pj"] =
      mean(resparc, [](const R& r) { return r.resparc->energy.neuron_pj; });
  values["core.energy.crossbar_pj"] =
      mean(resparc, [](const R& r) { return r.resparc->energy.crossbar_pj; });
  values["core.energy.peripherals_pj"] = mean(
      resparc, [](const R& r) { return r.resparc->energy.peripherals_pj(); });
  values["core.latency_ns"] =
      mean(resparc, [](const R& r) { return r.latency_ns; });
  values["core.cycles_compute"] =
      mean(resparc, [](const R& r) { return r.resparc->perf.cycles_compute; });
  values["core.cycles_transport"] = mean(
      resparc, [](const R& r) { return r.resparc->perf.cycles_transport; });
  values["noc.cycles_stall"] =
      mean(resparc, [](const R& r) { return r.resparc->perf.cycles_stall; });
  values["core.mcas"] = static_cast<double>(program.mapping.total_mcas);
  values["cmos.energy_pj"] =
      mean(cmos_reports, [](const R& r) { return r.energy_pj; });
}

}  // namespace perfbench
