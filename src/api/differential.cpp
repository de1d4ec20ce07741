#include "api/differential.hpp"

#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "snn/simulator.hpp"

namespace resparc::api {

namespace {

std::string diverged(const snn::FuzzCase& c, const std::string& what) {
  return c.summary() + ": " + what;
}

bool same_vector(const snn::SpikeVector& a, const snn::SpikeVector& b) {
  if (a.size() != b.size()) return false;
  const auto wa = a.words();
  const auto wb = b.words();
  for (std::size_t i = 0; i < wa.size(); ++i)
    if (wa[i] != wb[i]) return false;
  return true;
}

/// Exact comparison of two simulation results; fills `why` on divergence.
bool same_sim(const snn::SimResult& a, const snn::SimResult& b,
              std::string& why) {
  if (a.total_spikes != b.total_spikes) {
    why = "total_spikes " + std::to_string(a.total_spikes) + " vs " +
          std::to_string(b.total_spikes);
    return false;
  }
  if (a.predicted_class != b.predicted_class) {
    why = "predicted_class";
    return false;
  }
  if (a.output_spike_counts != b.output_spike_counts) {
    why = "output_spike_counts";
    return false;
  }
  if (a.trace.layers.size() != b.trace.layers.size()) {
    why = "trace layer count";
    return false;
  }
  for (std::size_t l = 0; l < a.trace.layers.size(); ++l) {
    if (a.trace.layers[l].size() != b.trace.layers[l].size()) {
      why = "trace timesteps at layer " + std::to_string(l);
      return false;
    }
    for (std::size_t t = 0; t < a.trace.layers[l].size(); ++t)
      if (!same_vector(a.trace.layers[l][t], b.trace.layers[l][t])) {
        why = "spikes at layer " + std::to_string(l) + " step " +
              std::to_string(t);
        return false;
      }
  }
  return true;
}

}  // namespace

DifferentialResult check_differential(const snn::FuzzCase& c) {
  DifferentialResult out;
  const snn::Network net = snn::make_fuzz_network(c);

  // -- simulation: the engine must reproduce the dense reference ------
  snn::SimConfig cfg;
  cfg.timesteps = c.timesteps;
  cfg.encoder = c.encoder;
  cfg.record_trace = true;

  // Same seed on both sides: the encoder consumes identical random
  // streams, so any divergence is the engine's, not the input's.
  const std::uint64_t seed = c.seed ^ 0xd1ffe8e47ull;
  Rng oracle_rng(seed);
  const snn::SimResult want =
      snn::simulate_reference(net, cfg, c.image, oracle_rng);

  // Twice through one reused simulator: the second presentation checks
  // that reset() leaves no state behind, and partitions every layer's
  // full-drive scatter over the global pool.
  snn::Simulator sim(net, cfg);
  for (const bool pooled : {false, true}) {
    if (pooled) sim.set_pool(&ThreadPool::global(), 0, 1);
    Rng rng(seed);
    const snn::SimResult got = sim.run(c.image, rng);
    std::string why;
    if (!same_sim(want, got, why)) {
      out.ok = false;
      out.detail = diverged(c, std::string("reference vs ") +
                                   (pooled ? "reused pooled engine"
                                           : "engine") +
                                   ": " + why);
      return out;
    }
  }
  return out;
}

}  // namespace resparc::api
