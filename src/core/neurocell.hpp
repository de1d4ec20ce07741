// Behavioral NeuroCell (paper Fig. 3): a 4x4 pool of mPEs plus a 3x3
// programmable-switch grid executing a (dense-layer) SNN spike-accurately.
//
// This is the bit-exact counterpart of the analytic Executor: it actually
// moves spikes through MCAs, CCU current chains and switches, so small
// networks can be verified end-to-end against the functional simulator
// (see tests/test_neurocell.cpp).  Paper-scale networks use the analytic
// path, which this class validates.  Also home of the Fig. 8
// implementation-metric roll-up of one NeuroCell.
#pragma once

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/mpe.hpp"
#include "core/switch.hpp"
#include "snn/network.hpp"
#include "snn/trace.hpp"

namespace resparc::core {

/// Aggregate traffic counters of the cell's switch network.
struct NeuroCellCounters {
  std::size_t packets_sent = 0;     ///< flits offered to the switch fabric
  std::size_t packets_dropped = 0;  ///< suppressed by zero-check
  std::size_t mca_reads = 0;
  std::size_t mca_skips = 0;
  std::size_t neuron_fires = 0;
  std::size_t ccu_transfers = 0;
};

/// Implementation metrics of one NeuroCell (paper Fig. 8).
struct NeuroCellMetrics {
  double area_mm2 = 0.0;
  double power_mw = 0.0;      ///< peak dynamic power at full activity
  double gate_count = 0.0;
  double frequency_mhz = 0.0;
  std::size_t mpe_count = 0;
  std::size_t switch_count = 0;
  std::size_t mcas_per_mpe = 0;
};

/// Computes the Fig. 8 metric roll-up for a configuration.
NeuroCellMetrics neurocell_metrics(const ResparcConfig& config);

/// One NeuroCell executing a dense SNN mapped within its capacity.
class NeuroCell {
 public:
  explicit NeuroCell(ResparcConfig config);

  /// Maps every (dense) layer of `net` onto the cell's mPEs.  Throws
  /// MappingError when the network needs more mPEs than the cell has or
  /// contains non-dense layers.  The network is copied (weights are
  /// programmed into MCAs; neuron parameters into populations).
  void load(const snn::Network& net);

  /// Executes one timestep: input spikes in, last-layer spikes out.
  snn::SpikeVector step(const snn::SpikeVector& input);

  /// Resets membranes and counters for a new presentation.
  void reset();

  /// Number of mPEs in use after load().
  std::size_t mpes_used() const { return mpes_.size(); }

  NeuroCellCounters counters() const;

  const ResparcConfig& config() const { return config_; }

 private:
  /// One column group of one layer: a host mPE plus helper mPEs whose
  /// currents chain through the CCU.
  struct ColGroup {
    std::size_t host = 0;              ///< index into mpes_
    std::vector<std::size_t> helpers;  ///< helper mPE indices
    std::size_t col_offset = 0;        ///< first neuron of the group
    std::size_t cols = 0;              ///< neurons in the group
  };
  struct LayerPlan {
    std::vector<ColGroup> groups;
    std::size_t neurons = 0;
  };

  ResparcConfig config_;
  std::vector<Mpe> mpes_;
  std::vector<ProgrammableSwitch> switches_;
  std::vector<LayerPlan> plan_;
  NeuroCellCounters extra_{};  ///< counters not owned by mPEs/switches
};

}  // namespace resparc::core
