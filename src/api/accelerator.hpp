// The unified accelerator surface (docs/architecture.md).
//
// Every architecture model this repo compares — the memristive RESPARC
// fabric and the CMOS FALCON-style baseline — is driven through the same three-call contract:
//
//   auto accel = api::make_accelerator("resparc", options);   // registry.hpp
//   accel->load(topology);                                    // place the SNN
//   api::ExecutionReport r = accel->execute(traces);          // replay spikes
//
// Backends consume identical snn::SpikeTrace workloads (the functional
// simulator is the single trace source), so an ExecutionReport from one
// backend is directly comparable with another's.  The report keeps both the
// unified headline numbers and, for the built-in backends, the native
// typed report so figure benches can reach architecture-specific detail
// (event counters, paper energy buckets) without downcasting accelerators.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cmos/falcon.hpp"
#include "core/energy.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::api {

/// Implementation-metric roll-up of one accelerator tile (paper Fig. 8/9).
struct AcceleratorMetrics {
  double area_mm2 = 0.0;       ///< silicon area of one tile
  double power_mw = 0.0;       ///< peak dynamic power at full activity
  double gate_count = 0.0;     ///< logic gates of the digital periphery
  double frequency_mhz = 0.0;  ///< operating clock
};

/// Backend-independent result of replaying traces.  Energy and latency are
/// per classification (averaged over the trace set).
struct ExecutionReport {
  std::string backend;               ///< Accelerator::name() of the producer
  std::size_t classifications = 0;   ///< presentations replayed
  double energy_pj = 0.0;            ///< total energy per classification
  double latency_ns = 0.0;           ///< steady-state latency per classification
  double throughput_hz = 0.0;        ///< classifications per second

  /// Named energy buckets (paper Fig. 12 style), backend-defined:
  /// RESPARC reports neuron/crossbar/peripherals, CMOS reports
  /// core/memory_access/memory_leakage.
  std::vector<std::pair<std::string, double>> energy_breakdown_pj;

  /// Named latency buckets (ns per classification, serial decomposition):
  /// the RESPARC backend reports compute / transport / noc_stall from the
  /// Ml-NoC model (docs/noc.md; stall is 0 in analytic fidelity).
  /// Backends without a transport model leave it empty.
  std::vector<std::pair<std::string, double>> latency_breakdown_ns;

  /// Realised device-fault manifest of the chip instance the replay ran
  /// on (RESPARC backend with ResparcConfig::faults enabled); absent on
  /// fault-free runs and non-RESPARC backends (docs/reliability.md).
  std::optional<tech::FaultManifest> faults;

  /// Native typed report when the producer is the RESPARC backend.
  std::optional<core::RunReport> resparc;
  /// Native typed report when the producer is the CMOS baseline backend.
  std::optional<cmos::CmosReport> cmos;

  /// Value of one named breakdown bucket (0 when absent).
  double bucket_pj(const std::string& name) const {
    for (const auto& [key, value] : energy_breakdown_pj)
      if (key == name) return value;
    return 0.0;
  }

  /// Value of one named latency bucket (0 when absent).
  double bucket_ns(const std::string& name) const {
    for (const auto& [key, value] : latency_breakdown_ns)
      if (key == name) return value;
    return 0.0;
  }
};

/// Abstract accelerator: anything that can host an SNN topology and replay
/// spike traces against it.  Implementations must keep execute() const and
/// thread-safe so the batched pipeline can replay traces concurrently.
class Accelerator {
 public:
  virtual ~Accelerator() = default;

  /// Display name, e.g. "RESPARC-64" or "CMOS".
  virtual std::string name() const = 0;

  /// Places `topology` onto the fabric, replacing any previous network.
  virtual void load(const snn::Topology& topology) = 0;

  /// True once a network is loaded.
  virtual bool loaded() const = 0;

  /// Replays a set of traces against the loaded network; energy and
  /// latency in the report are averaged per classification.
  virtual ExecutionReport execute(
      std::span<const snn::SpikeTrace> traces) const = 0;

  /// Convenience: replay a single trace.
  ExecutionReport execute(const snn::SpikeTrace& trace) const {
    return execute(std::span<const snn::SpikeTrace>(&trace, 1));
  }

  /// Implementation metrics of one tile (area/power/gates/frequency).
  virtual AcceleratorMetrics metrics() const = 0;
};

/// Converts a native RESPARC report to the unified form.
ExecutionReport to_execution_report(const core::RunReport& report,
                                    std::string backend);
/// Converts a native CMOS baseline report to the unified form.
ExecutionReport to_execution_report(const cmos::CmosReport& report,
                                    std::string backend);

}  // namespace resparc::api
