// Built-in Accelerator adapters over the two architecture models.
//
// ResparcBackend wraps core::ResparcChip (memristive crossbar fabric,
// paper sections 3-5); CmosBackend wraps cmos::FalconAccelerator (the
// aggressively optimised digital baseline of section 4.1).  Both are
// normally obtained through api::make_accelerator (registry.hpp); the
// concrete types are public for callers that need architecture-specific
// accessors such as the crossbar Mapping.
#pragma once

#include <optional>
#include <string>

#include "api/accelerator.hpp"
#include "cmos/falcon.hpp"
#include "compile/program.hpp"
#include "core/resparc.hpp"
#include "noc/route.hpp"

namespace resparc::api {

/// The memristive RESPARC fabric behind the unified interface.  `load`
/// compiles the topology with the configured mapping strategy
/// (compile/strategy.hpp); a pre-compiled or deserialized
/// compile::CompiledProgram loads directly via load_program.
class ResparcBackend final : public Accelerator {
 public:
  /// Builds an unloaded backend for `config`; `strategy` picks the
  /// compile-layer mapping policy and `noc` the Ml-NoC timing fidelity
  /// (docs/noc.md).
  explicit ResparcBackend(
      core::ResparcConfig config = core::default_config(),
      std::string strategy = "paper",
      noc::Fidelity noc = noc::Fidelity::kAnalytic);

  /// Config label, e.g. "RESPARC-64"; non-default strategies append
  /// `"/<strategy>"` and event NoC fidelity appends "@event"
  /// ("RESPARC-64/greedy-pack@event").
  std::string name() const override;
  /// Compiles `topology` with the configured strategy and hosts it.
  void load(const snn::Topology& topology) override;
  /// True once a network is loaded.
  bool loaded() const override { return chip_.loaded(); }
  /// Replays the traces (core::ResparcChip::execute).
  ExecutionReport execute(
      std::span<const snn::SpikeTrace> traces) const override;
  /// Fig. 8 metric roll-up of one NeuroCell at this configuration.
  AcceleratorMetrics metrics() const override;

  /// The configured Ml-NoC timing fidelity.
  noc::Fidelity noc_fidelity() const { return chip_.fidelity(); }

  /// Hosts a compiled artifact (fingerprint-checked against this config);
  /// strategy() and name() then reflect the program's strategy.
  void load_program(const snn::Topology& topology,
                    compile::CompiledProgram program);

  /// The chip configuration this backend was built with.
  const core::ResparcConfig& config() const { return chip_.config(); }
  /// Strategy of the loaded program; before any load, the configured
  /// name.  "auto" reads as "auto" until a load, then as the strategy
  /// that won; the configured name itself never changes, so every
  /// load() selects again.
  const std::string& strategy() const {
    return chip_.loaded() ? chip_.program().strategy : strategy_;
  }
  /// Crossbar mapping of the loaded network (throws when none is loaded).
  const core::Mapping& mapping() const { return chip_.mapping(); }
  /// Compiled program of the loaded network (throws when none is loaded).
  const compile::CompiledProgram& program() const { return chip_.program(); }

 private:
  core::ResparcChip chip_;
  std::string strategy_;
};

/// The digital CMOS baseline behind the unified interface.
class CmosBackend final : public Accelerator {
 public:
  /// Builds an unloaded baseline backend for `config` (validated).
  explicit CmosBackend(cmos::FalconConfig config = {});

  std::string name() const override;  ///< "CMOS"
  /// Copies `topology` and instantiates the FALCON accelerator over it.
  void load(const snn::Topology& topology) override;
  /// True once a network is loaded.
  bool loaded() const override { return accelerator_.has_value(); }
  /// Replays the traces through the digital baseline's cycle model.
  ExecutionReport execute(
      std::span<const snn::SpikeTrace> traces) const override;
  /// Fig. 9 metric roll-up of the baseline tile.
  AcceleratorMetrics metrics() const override;

  /// The baseline configuration this backend was built with.
  const cmos::FalconConfig& config() const { return config_; }

 private:
  cmos::FalconConfig config_;
  // FalconAccelerator holds a reference to its topology, so the backend
  // owns a stable copy for the accelerator to point into.
  std::optional<snn::Topology> topology_;
  std::optional<cmos::FalconAccelerator> accelerator_;
};

}  // namespace resparc::api
