// ActivityTrace: measured spike-sparsity statistics of a workload.
//
// A SpikeTrace records *which* neuron spiked when; an ActivityTrace
// distils one or many of them into the per-layer spike rasters the
// benches and docs report — spikes per layer per timestep, activity
// fractions, silent steps — without holding the full bit matrices.  It
// accumulates across presentations (one Workload = many traces).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "snn/trace.hpp"

namespace resparc::snn {

/// Thrown when a trace does not match the accumulated ones (or a layer
/// index is out of range).
class ActivityError : public Error {
 public:
  /// Wraps `what` with the "activity trace error:" prefix.
  explicit ActivityError(const std::string& what)
      : Error("activity trace error: " + what) {}
};

/// Spike raster of one layer, summed over the recorded presentations.
struct LayerActivityRaster {
  std::size_t neurons = 0;  ///< population size of the layer
  /// spikes_per_step[t]: spikes emitted at timestep t (summed over
  /// presentations).
  std::vector<std::uint64_t> spikes_per_step;

  /// Total spikes over all steps and presentations.
  std::uint64_t total_spikes() const;
  /// Mean spikes per neuron per timestep, given how many presentations
  /// were accumulated.
  double activity(std::size_t presentations) const;
  /// Steps at which the layer emitted no spike in any presentation.
  std::size_t silent_steps() const;
};

/// Per-layer spike rasters plus derived sparsity statistics for a set of
/// presentations (layer 0 = encoded input).
struct ActivityTrace {
  std::vector<LayerActivityRaster> layers;  ///< index 0 = encoded input
  std::size_t presentations = 0;            ///< traces accumulated

  /// Accumulates one presentation.  The first add() fixes the layer
  /// count, population sizes and timestep count; later traces must match
  /// (throws ActivityError otherwise).
  void add(const SpikeTrace& trace);

  /// Builds a trace from a single presentation.
  static ActivityTrace from_trace(const SpikeTrace& trace);

  /// Number of recorded layers (input layer included).
  std::size_t layer_count() const { return layers.size(); }
  /// Presentation length the rasters were recorded at.
  std::size_t timesteps() const {
    return layers.empty() ? 0 : layers.front().spikes_per_step.size();
  }

  /// Mean spikes per neuron per timestep of layer `l`.
  double layer_activity(std::size_t l) const;
  /// Slot-weighted mean activity — total spikes over total
  /// (neuron x timestep x presentation) slots, matching
  /// snn::mean_activity over the accumulated traces.
  double mean_activity() const;
  /// 1 - input-layer activity: the sparsity knob the event-driven
  /// hardware savings scale with (paper section 3.2).
  double input_sparsity() const;
};

}  // namespace resparc::snn
