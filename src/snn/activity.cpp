#include "snn/activity.hpp"

#include <numeric>

namespace resparc::snn {

std::uint64_t LayerActivityRaster::total_spikes() const {
  return std::accumulate(spikes_per_step.begin(), spikes_per_step.end(),
                         std::uint64_t{0});
}

double LayerActivityRaster::activity(std::size_t presentations) const {
  const double denom = static_cast<double>(neurons) *
                       static_cast<double>(spikes_per_step.size()) *
                       static_cast<double>(presentations);
  return denom > 0.0 ? static_cast<double>(total_spikes()) / denom : 0.0;
}

std::size_t LayerActivityRaster::silent_steps() const {
  std::size_t n = 0;
  for (const std::uint64_t s : spikes_per_step)
    if (s == 0) ++n;
  return n;
}

void ActivityTrace::add(const SpikeTrace& trace) {
  if (layers.empty()) {
    layers.resize(trace.layer_count());
    for (std::size_t l = 0; l < trace.layer_count(); ++l) {
      layers[l].neurons =
          trace.layers[l].empty() ? 0 : trace.layers[l].front().size();
      layers[l].spikes_per_step.assign(trace.layers[l].size(), 0);
    }
  }
  if (trace.layer_count() != layers.size())
    throw ActivityError("trace has " + std::to_string(trace.layer_count()) +
                        " layers, accumulator has " +
                        std::to_string(layers.size()));
  for (std::size_t l = 0; l < layers.size(); ++l) {
    LayerActivityRaster& raster = layers[l];
    const auto& steps = trace.layers[l];
    if (steps.size() != raster.spikes_per_step.size())
      throw ActivityError("trace layer " + std::to_string(l) + " has " +
                          std::to_string(steps.size()) +
                          " timesteps, accumulator has " +
                          std::to_string(raster.spikes_per_step.size()));
    for (std::size_t t = 0; t < steps.size(); ++t)
      raster.spikes_per_step[t] += steps[t].count();
  }
  ++presentations;
}

ActivityTrace ActivityTrace::from_trace(const SpikeTrace& trace) {
  ActivityTrace a;
  a.add(trace);
  return a;
}

double ActivityTrace::layer_activity(std::size_t l) const {
  if (l >= layers.size()) throw ActivityError("layer out of range");
  return layers[l].activity(presentations);
}

double ActivityTrace::mean_activity() const {
  // Slot-weighted like snn::mean_activity: total spikes over total
  // (neuron x timestep x presentation) slots, so large layers dominate.
  std::uint64_t spikes = 0;
  double slots = 0.0;
  for (const LayerActivityRaster& raster : layers) {
    spikes += raster.total_spikes();
    slots += static_cast<double>(raster.neurons) *
             static_cast<double>(raster.spikes_per_step.size()) *
             static_cast<double>(presentations);
  }
  return slots > 0.0 ? static_cast<double>(spikes) / slots : 0.0;
}

double ActivityTrace::input_sparsity() const {
  return layers.empty() ? 1.0 : 1.0 - layer_activity(0);
}

}  // namespace resparc::snn
