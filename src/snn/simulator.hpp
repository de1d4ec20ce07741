// Event-driven functional SNN simulator.
//
// Executes a Network for T timesteps on one encoded input and records the
// full spike trace.  Propagation is input-driven ("event-driven"): only
// spiking neurons scatter their fan-out, and each layer step picks a
// stamped or a full-drive update by its input event count
// (snn/sparse_engine.hpp), mirroring the architecture's zero-skipping
// (section 3.2) — and making paper-scale networks simulable on a laptop.
//
// The simulator is the single source of spike traces for BOTH architecture
// models (RESPARC and the CMOS baseline), which guarantees the two sides of
// every comparison saw identical workloads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "snn/encoder.hpp"
#include "snn/network.hpp"
#include "snn/trace.hpp"

namespace resparc {
class ThreadPool;
}

namespace resparc::snn {

class SparseEngine;

/// Simulation configuration.
struct SimConfig {
  std::size_t timesteps = 32;  ///< presentation length per classification
  EncoderConfig encoder{};     ///< input spike encoding
  bool record_trace = true;    ///< keep the packed trace (off for accuracy-only runs)
};

/// Result of one presentation.
struct SimResult {
  SpikeTrace trace;  ///< empty when record_trace is false
  std::vector<std::size_t> output_spike_counts;  ///< per output neuron
  std::size_t predicted_class = 0;  ///< argmax of output spike counts
  std::size_t total_spikes = 0;     ///< all layers, whole presentation
};

/// Runs a Network presentation-by-presentation.
class Simulator {
 public:
  /// The network must outlive the simulator.
  Simulator(const Network& net, SimConfig config);
  ~Simulator();

  const SimConfig& config() const { return config_; }

  /// Presents one image (flat CHW intensities in [0,1]) and returns spikes.
  SimResult run(std::span<const float> image, Rng& rng);

  /// Allocation-free steady-state form of run(): refills `out`, reusing
  /// its buffers.  A Simulator reused across presentations (with either
  /// overload) produces bit-for-bit the trace a freshly constructed one
  /// would; after a warm-up presentation, a record_trace=false run
  /// performs zero heap allocations (tests/test_allocation.cpp).
  void run(std::span<const float> image, Rng& rng, SimResult& out);

  /// Enables within-trace parallelism: full-drive steps of layers with
  /// at least `min_outputs` neurons spread their packed-word scatter over
  /// `parts` output partitions on `pool` (0 = pool width).  Results are
  /// bit-for-bit identical with any pool/parts value — each output
  /// element is written by exactly one partition in the serial order
  /// (docs/performance.md).  Pass nullptr to disable (the default).
  void set_pool(ThreadPool* pool, std::size_t parts = 0,
                std::size_t min_outputs = kMinPooledOutputs);

  /// Default set_pool() layer-size gate: paper-scale CNN feature maps
  /// qualify, MLP layers (where one presentation is already cheap) don't.
  static constexpr std::size_t kMinPooledOutputs = 8192;

  /// Collects per-neuron per-step input currents arriving at `layer` over
  /// one presentation (used by threshold calibration).  Layers after
  /// `layer` are not executed.
  void observe_currents(std::span<const float> image, Rng& rng,
                        std::size_t layer, std::vector<float>& samples_out);

 private:
  const Network& net_;
  SimConfig config_;
  RateEncoder encoder_;

  // Per-presentation scratch, hoisted so the steady state is
  // allocation-free (buffers only ever grow).
  std::vector<SpikeVector> input_spikes_;      ///< encoded input
  std::vector<std::uint32_t> output_active_;   ///< output-layer spikes
  std::unique_ptr<SparseEngine> engine_;       ///< built on first use

  /// The engine, built on first use (calibration's observe_currents
  /// never needs one).
  SparseEngine& engine();
};

/// Reference semantics of Simulator::run: the naive dense loop that
/// steps every neuron of every layer on every timestep (index-list
/// scatter, byte-output IfPopulation::step), with fresh state per call.
/// It is the differential oracle the engine is checked against
/// (api/differential.hpp) and nothing else — use Simulator for work.
SimResult simulate_reference(const Network& net, const SimConfig& config,
                             std::span<const float> image, Rng& rng);

/// Sets each layer's threshold to the (1 - target_activity) quantile of its
/// observed positive input currents, front to back, so every layer fires at
/// roughly `target_activity` — the regime the paper's energy numbers assume.
/// `images` are flat intensity vectors.  Returns the chosen thresholds.
std::vector<double> calibrate_thresholds(Network& net,
                                         std::span<const std::vector<float>> images,
                                         const SimConfig& config, Rng& rng,
                                         double target_activity);

/// Fraction of correct argmax classifications over the given image/label set.
double evaluate_accuracy(const Network& net, const SimConfig& config,
                         std::span<const std::vector<float>> images,
                         std::span<const int> labels, Rng& rng);

}  // namespace resparc::snn
