// Backend lookup: the factory seam of the API layer.
//
// Callers name the architecture they want and get an abstract Accelerator:
//
//   auto resparc = api::make_accelerator("resparc-64");
//   auto greedy  = api::make_accelerator("resparc-64/greedy-pack");
//   auto cmos    = api::make_accelerator("cmos");
//
// The names form a fixed table:
//   "resparc"                  RESPARC at the paper's default operating
//                              point, honouring options.resparc verbatim
//   "resparc-32/-64/-128/-256" RESPARC with the MCA size overridden
//   "cmos", "falcon"           the digital baseline (options.cmos)
//
// The RESPARC keys accept a "/<strategy>" suffix selecting the mapping
// strategy the compile layer uses (compile/strategy.hpp: "paper",
// "greedy-pack", "anneal", "beam", or "auto" for the best of them).  The
// same choice is available programmatically through
// BackendOptions::strategy.  The CMOS keys have no compile step and
// reject a suffix.
#pragma once

#include <memory>
#include <string>

#include "api/accelerator.hpp"
#include "cmos/falcon.hpp"
#include "common/error.hpp"
#include "core/config.hpp"
#include "noc/route.hpp"

namespace resparc::api {

/// Thrown for unknown backend names; the message lists the known ones.
class BackendError : public Error {
 public:
  /// Wraps `what` with the "backend error:" prefix.
  explicit BackendError(const std::string& what)
      : Error("backend error: " + what) {}
};

/// Configuration make_accelerator hands to the backend it builds.  Each
/// backend reads the slice it understands and ignores the rest, so one
/// options object can configure a whole comparison.
struct BackendOptions {
  core::ResparcConfig resparc = core::default_config();  ///< RESPARC slice
  cmos::FalconConfig cmos{};                             ///< CMOS slice
  /// Mapping strategy for crossbar backends: "paper", "greedy-pack",
  /// "anneal", "beam" (compile::strategy_names()) or "auto".  A
  /// `"/<strategy>"` key suffix overrides this.
  /// Backends without a compile step (the CMOS baseline) ignore it.
  std::string strategy = "paper";
  /// Ml-NoC timing fidelity for the RESPARC fabric (docs/noc.md):
  /// kAnalytic reproduces the flat per-word transfer charges bit-for-bit;
  /// kEvent drives switch-FIFO queues and adds hop pipeline-fill plus
  /// congestion stall latency.  Backends without a NoC model ignore it.
  noc::Fidelity noc = noc::Fidelity::kAnalytic;
};

/// Creates the backend named `name`; an optional `"base/<strategy>"`
/// suffix selects the mapping strategy (e.g. "resparc-64/greedy-pack").
/// Throws BackendError for unknown backend names or strategies, and for a
/// suffix on a CMOS key — the message lists the known names.
std::unique_ptr<Accelerator> make_accelerator(const std::string& name,
                                              const BackendOptions& options = {});

}  // namespace resparc::api
