#include "compile/compiler.hpp"

#include <limits>
#include <utility>

#include "compile/cost_model.hpp"
#include "compile/repair.hpp"
#include "verify/verifier.hpp"

namespace resparc::compile {

namespace {

/// Legalize pass: every layer must be non-empty and physically mappable
/// onto the configured fabric (a dense/conv column always fits — columns
/// tile freely — but each output neuron's rows must be reachable within
/// the time-multiplex scheme, which only requires a positive MCA size;
/// what can fail is an empty layer or an impossible shape).
void legalize_pass(const snn::Topology& topology,
                   const core::ResparcConfig& config) {
  config.validate();
  for (std::size_t l = 0; l < topology.layer_count(); ++l) {
    const snn::LayerInfo& li = topology.layers()[l];
    if (li.neurons == 0)
      throw MappingError("legalize: layer " + std::to_string(l) +
                               " has zero neurons");
    if (li.fan_in == 0)
      throw MappingError("legalize: layer " + std::to_string(l) +
                               " has zero fan-in");
  }
}

}  // namespace

Compiler::Compiler(core::ResparcConfig config) : config_(std::move(config)) {
  config_.validate();
}

CompiledProgram Compiler::compile(const snn::Topology& topology,
                                  const MappingStrategy& strategy) const {
  // -- legalize --------------------------------------------------------------
  legalize_pass(topology, config_);

  CompiledProgram program;
  program.strategy = strategy.name();
  program.topology_name = topology.name();
  program.topology_summary = topology.summary();
  program.config_fingerprint = config_.fingerprint();

  // -- map -------------------------------------------------------------------
  program.mapping = strategy.map(topology, config_);

  // -- repair ----------------------------------------------------------------
  // Fault-aware re-placement around failed mPEs (no-op unless the config
  // injects faults with repair enabled); runs before routing so routes
  // and costs describe the repaired placement (docs/reliability.md).
  repair_placement(program.mapping);

  // -- route -----------------------------------------------------------------
  // The real routing pass: one Ml-NoC Route per layer boundary (input
  // broadcast, inter-layer edges, final egress), serialized with the
  // program so the executor replays on exactly the routes the candidate
  // was scored with (docs/noc.md).
  program.routes = noc::compute_routes(program.mapping);

  // -- cost-estimate ---------------------------------------------------------
  program.cost = estimate_cost(topology, program.mapping, program.routes);
  program.report = utilization_report(topology, program.mapping);

  // -- verify ----------------------------------------------------------------
  // Mandatory post-pass: the emitted program must satisfy every invariant
  // the earlier passes claim to establish (docs/verification.md).  This
  // is the strategy-independent contract — a buggy or adversarial
  // MappingStrategy cannot emit a program that overflows an MCA, skips a
  // boundary route, or reports stale cost totals.
  verify::VerifyOptions vo;
  vo.topology = &topology;
  verify::verify_program(program, vo)
      .raise_if_errors("compile(" + strategy.name() + ")");
  return program;
}

CompiledProgram Compiler::compile(const snn::Topology& topology,
                                  const std::string& strategy) const {
  if (strategy != "auto") return compile(topology, *make_strategy(strategy));
  CompiledProgram best;
  double best_score = std::numeric_limits<double>::infinity();
  for (const std::string& name : strategy_names()) {
    CompiledProgram candidate = compile(topology, *make_strategy(name));
    if (candidate.cost.score() < best_score) {
      best_score = candidate.cost.score();
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace resparc::compile
