// Compiler: lowers an SNN topology onto the MCA fabric as a pass pipeline.
//
// Where core::map_network is one hard-wired algorithm, the compiler runs
// it (or another strategy) inside a checked pipeline:
//
//   legalize  validate the topology against the configuration
//             (non-empty layers, every layer physically mappable)
//   map       strategy: tile every layer into MCA groups and place the
//             MCAs on mPEs and NeuroCells (strategy.hpp)
//   repair    re-place around failed mPEs when the config injects faults
//   route     one Ml-NoC route per layer boundary (docs/noc.md)
//   cost      count serial-bus boundaries and score the mapping with the
//             analytic cost model at compile::kAssumedActivity
//             (cost_model.hpp)
//   verify    mandatory static verification (src/verify): the emitted
//             program is rejected with verify::VerifyError when any
//             structural/capacity/consistency invariant is violated
//             (docs/verification.md)
//
// and emits a CompiledProgram — a serializable artifact that
// api::ResparcBackend loads directly:
//
//   compile::Compiler compiler(config);
//   auto program = compiler.compile(topology, "greedy-pack");
//   backend.load_program(topology, program);
//
// compile(topology, "auto") compiles with each of the four strategies and
// keeps the lowest energy-delay product (the first on ties).  A strategy
// object with its own knobs (a budgeted search::make_anneal_strategy,
// say) compiles through the compile(topology, strategy) overload.
#pragma once

#include <string>

#include "compile/program.hpp"
#include "compile/strategy.hpp"
#include "core/config.hpp"
#include "snn/topology.hpp"

namespace resparc::compile {

/// Runs the legalize → map → repair → route → cost → verify pass
/// pipeline for one chip configuration and emits CompiledPrograms.
class Compiler {
 public:
  /// Builds a compiler for `config` (validated on first compile).
  explicit Compiler(core::ResparcConfig config);

  /// The configuration programs are compiled (and fingerprinted) for.
  const core::ResparcConfig& config() const { return config_; }

  /// Runs the pass pipeline with the named strategy; "auto" compiles with
  /// each of the four and returns the program with the lowest cost score
  /// (energy-delay product per timestep).  Throws CompileError for
  /// unknown strategies, MappingError when the topology cannot be lowered,
  /// and verify::VerifyError when the strategy emits a program that fails
  /// the mandatory static verification post-pass.
  CompiledProgram compile(const snn::Topology& topology,
                          const std::string& strategy = "paper") const;

  /// Runs the pass pipeline with `strategy` itself; same errors as the
  /// named overload.
  CompiledProgram compile(const snn::Topology& topology,
                          const MappingStrategy& strategy) const;

 private:
  core::ResparcConfig config_;
};

}  // namespace resparc::compile
