#include "snn/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "snn/scatter.hpp"
#include "snn/sparse_engine.hpp"

namespace resparc::snn {

namespace {

/// Sizes `out` for a fresh presentation of `T` steps through `topo`.
void begin_result(const Topology& topo, std::size_t T, bool record_trace,
                  SimResult& out) {
  out.trace.layers.clear();
  if (record_trace) {
    out.trace.layers.resize(topo.layer_count() + 1);
    for (auto& lt : out.trace.layers) lt.reserve(T);
  }
  out.output_spike_counts.assign(topo.output_count(), 0);
  out.predicted_class = 0;
  out.total_spikes = 0;
}

/// The naive dense layer step shared by simulate_reference and
/// observe_currents: fresh populations for the first `layers` layers,
/// every neuron stepped every step (index-list scatter, byte-output
/// IfPopulation::step).  Layers run one at a time, so they share one
/// conv scatter scratch sized for the largest.
class DenseLayers {
 public:
  DenseLayers(const Network& net, std::size_t layers) : net_(net) {
    std::size_t scratch = 0;
    for (std::size_t l = 0; l < layers; ++l) {
      const LayerInfo& li = net.topology().layers()[l];
      pops_.emplace_back(li.neurons, net.layer(l).neuron);
      currents_.emplace_back(li.neurons, 0.0f);
      spike_bytes_.emplace_back(li.neurons, std::uint8_t{0});
      scratch = std::max(scratch, scatter_scratch_size(li));
    }
    spikes_.resize(layers);
    scratch_.assign(scratch, 0.0f);
  }

  /// Scatters `in` into layer `l`'s current buffer (zeroed first) and
  /// returns it.
  const std::vector<float>& accumulate(std::size_t l, const SpikeVector& in) {
    active_.clear();
    in.append_active(active_);
    std::fill(currents_[l].begin(), currents_[l].end(), 0.0f);
    scatter_accumulate(net_.topology().layers()[l], net_.layer(l).weights,
                       active_, currents_[l], scratch_);
    return currents_[l];
  }

  /// Steps layer `l` on its accumulated current; returns its spikes,
  /// valid until the layer's next fire().
  const SpikeVector& fire(std::size_t l) {
    pops_[l].step(currents_[l], spike_bytes_[l]);
    spikes_[l] = SpikeVector::from_bytes(spike_bytes_[l]);
    return spikes_[l];
  }

 private:
  const Network& net_;
  std::vector<IfPopulation> pops_;
  std::vector<std::vector<float>> currents_;
  std::vector<std::vector<std::uint8_t>> spike_bytes_;
  std::vector<SpikeVector> spikes_;
  std::vector<std::uint32_t> active_;
  std::vector<float> scratch_;  ///< all-zero between accumulate() calls
};

/// Argmax of the output spike counts (first maximum wins).
std::size_t argmax(const std::vector<std::size_t>& counts) {
  return static_cast<std::size_t>(std::distance(
      counts.begin(), std::max_element(counts.begin(), counts.end())));
}

}  // namespace

Simulator::Simulator(const Network& net, SimConfig config)
    : net_(net), config_(config), encoder_(config.encoder) {
  require(config_.timesteps > 0, "simulator needs timesteps > 0");
}

Simulator::~Simulator() = default;

SparseEngine& Simulator::engine() {
  if (!engine_) engine_ = std::make_unique<SparseEngine>(net_);
  return *engine_;
}

void Simulator::set_pool(ThreadPool* pool, std::size_t parts,
                         std::size_t min_outputs) {
  engine().set_pool(pool, parts, min_outputs);
}

SimResult Simulator::run(std::span<const float> image, Rng& rng) {
  SimResult result;
  run(image, rng, result);
  return result;
}

void Simulator::run(std::span<const float> image, Rng& rng, SimResult& out) {
  const Topology& topo = net_.topology();
  require(image.size() == topo.input_shape().size(),
          "simulator: image size does not match topology input");
  const std::size_t T = config_.timesteps;
  begin_result(topo, T, config_.record_trace, out);
  encoder_.encode_into(image, T, rng, input_spikes_);

  SparseEngine& engine = this->engine();
  engine.reset();

  for (std::size_t t = 0; t < T; ++t) {
    const SpikeVector* spikes = &input_spikes_[t];
    std::size_t events = spikes->count();
    out.total_spikes += events;
    if (config_.record_trace) out.trace.layers[0].push_back(*spikes);
    for (std::size_t l = 0; l < topo.layer_count(); ++l) {
      spikes = &engine.step_layer(l, *spikes, events);
      events = engine.last_fired(l);
      out.total_spikes += events;
      if (config_.record_trace) out.trace.layers[l + 1].push_back(*spikes);
    }
    output_active_.clear();
    spikes->append_active(output_active_);
    for (const std::uint32_t i : output_active_) ++out.output_spike_counts[i];
  }
  out.predicted_class = argmax(out.output_spike_counts);
}

SimResult simulate_reference(const Network& net, const SimConfig& config,
                             std::span<const float> image, Rng& rng) {
  const Topology& topo = net.topology();
  require(config.timesteps > 0, "simulator needs timesteps > 0");
  require(image.size() == topo.input_shape().size(),
          "simulator: image size does not match topology input");
  const std::size_t T = config.timesteps;
  SimResult result;
  begin_result(topo, T, config.record_trace, result);

  DenseLayers dense(net, topo.layer_count());
  const std::vector<SpikeVector> input =
      RateEncoder(config.encoder).encode(image, T, rng);

  for (std::size_t t = 0; t < T; ++t) {
    const SpikeVector* prev = &input[t];
    result.total_spikes += prev->count();
    if (config.record_trace) result.trace.layers[0].push_back(*prev);
    for (std::size_t l = 0; l < topo.layer_count(); ++l) {
      dense.accumulate(l, *prev);
      prev = &dense.fire(l);
      result.total_spikes += prev->count();
      if (config.record_trace) result.trace.layers[l + 1].push_back(*prev);
    }
    for (std::size_t i = 0; i < prev->size(); ++i)
      if (prev->get(i)) ++result.output_spike_counts[i];
  }
  result.predicted_class = argmax(result.output_spike_counts);
  return result;
}

void Simulator::observe_currents(std::span<const float> image, Rng& rng,
                                 std::size_t layer,
                                 std::vector<float>& samples_out) {
  const Topology& topo = net_.topology();
  require(layer < topo.layer_count(), "observe_currents: layer out of range");

  DenseLayers dense(net_, layer + 1);
  const auto input_spikes = encoder_.encode(image, config_.timesteps, rng);

  for (std::size_t t = 0; t < config_.timesteps; ++t) {
    const SpikeVector* prev = &input_spikes[t];
    for (std::size_t l = 0; l < layer; ++l) {
      dense.accumulate(l, *prev);
      prev = &dense.fire(l);
    }
    const std::vector<float>& current = dense.accumulate(layer, *prev);
    samples_out.insert(samples_out.end(), current.begin(), current.end());
  }
}

std::vector<double> calibrate_thresholds(
    Network& net, std::span<const std::vector<float>> images,
    const SimConfig& config, Rng& rng, double target_activity) {
  require(target_activity > 0.0 && target_activity < 1.0,
          "target activity must be in (0,1)");
  require(!images.empty(), "calibration needs at least one image");

  std::vector<double> chosen;
  const std::size_t layer_count = net.topology().layer_count();
  for (std::size_t l = 0; l < layer_count; ++l) {
    // Pool layers keep their fixed semantics: fire when at least half the
    // window was active.  Their threshold is not calibrated.
    if (net.topology().layers()[l].spec.kind == LayerKind::kAvgPool) {
      net.layer(l).neuron.v_threshold = 0.5;
      chosen.push_back(0.5);
      continue;
    }
    std::vector<float> samples;
    Simulator sim(net, config);
    for (const auto& img : images) sim.observe_currents(img, rng, l, samples);

    // Keep strictly positive currents; a layer that never receives positive
    // drive keeps threshold 1 (it will stay silent, which is honest).
    std::vector<float> pos;
    pos.reserve(samples.size());
    for (float s : samples)
      if (s > 0.0f) pos.push_back(s);
    double vth = 1.0;
    if (!pos.empty()) {
      // The threshold acts on *accumulated* membrane, so a neuron whose mean
      // positive per-step current is c fires roughly every vth/c steps.
      // Setting vth to the (1-a) quantile of per-step currents yields a
      // per-step fire probability of ~a for the upper tail of neurons.
      const double q = 1.0 - target_activity;
      const std::size_t idx = std::min(
          pos.size() - 1, static_cast<std::size_t>(q * static_cast<double>(pos.size())));
      std::nth_element(pos.begin(), pos.begin() + static_cast<std::ptrdiff_t>(idx),
                       pos.end());
      vth = std::max(1e-6, static_cast<double>(pos[idx]));
    }
    net.layer(l).neuron.v_threshold = vth;
    chosen.push_back(vth);
  }
  return chosen;
}

double evaluate_accuracy(const Network& net, const SimConfig& config,
                         std::span<const std::vector<float>> images,
                         std::span<const int> labels, Rng& rng) {
  require(images.size() == labels.size(),
          "evaluate_accuracy: images/labels size mismatch");
  require(!images.empty(), "evaluate_accuracy: empty set");
  SimConfig cfg = config;
  cfg.record_trace = false;
  Simulator sim(net, cfg);
  SimResult r;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < images.size(); ++i) {
    sim.run(images[i], rng, r);
    if (static_cast<int>(r.predicted_class) == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(images.size());
}

}  // namespace resparc::snn
