// Micro-benchmark — simulation engine throughput across input sparsity
// (docs/execution.md, docs/benchmarks.md).
//
// The MNIST CNN workload is calibrated ONCE at full input rate (the
// paper's ~10%-activity regime); the sweep then presents the same fixed
// network with progressively sparser Poisson input by scaling the
// encoder rate — the physically meaningful experiment: a dimmer input on
// unchanged thresholds quiets every downstream layer, exactly the regime
// where event-driven execution pays (paper section 3.2, Fig. 13).  For
// each sparsity level the bench reports measured input sparsity and mean
// activity (snn::ActivityTrace), the traces/sec of the engine and of the
// dense reference loop (snn::simulate_reference, which steps every
// neuron every step), and the engine's speedup over the reference.
// Engine throughput must rise monotonically with sparsity as it trades
// full-drive steps for stamped ones.
// Results go to stdout and bench/trajectory/bench_sparse_execution.json
// (the trajectory envelope of bench/trajectory/README.md).
//
// Environment knobs:
//   RESPARC_BENCH_IMAGES    presentations per measurement (default 3)
//   RESPARC_BENCH_TIMESTEPS presentation length           (default 16)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "snn/activity.hpp"
#include "snn/benchmarks.hpp"
#include "snn/simulator.hpp"

namespace {

using namespace resparc;
using Clock = std::chrono::steady_clock;

struct Row {
  double rate = 1.0;          ///< encoder max_rate scale
  double input_sparsity = 0;  ///< measured 1 - input activity
  double mean_activity = 0;   ///< measured spikes/neuron/step, all layers
  double engine_tps = 0;      ///< Simulator::run traces/sec
  double reference_tps = 0;   ///< snn::simulate_reference traces/sec
  double speedup = 0;         ///< engine_tps / reference_tps
};

/// Traces/sec of `simulate` (engine or reference) over the workload's
/// first `images` test images, `repeats` times each.
template <class Simulate>
double time_traces(const api::Workload& w, const snn::SimConfig& base,
                   std::size_t images, std::size_t repeats,
                   Simulate simulate) {
  snn::SimConfig cfg = base;
  cfg.record_trace = false;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < images; ++i) {
      Rng rng(api::presentation_seed(bench::bench_seed(), i));
      (void)simulate(cfg, w.test.images[i], rng);
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(images * repeats) / std::max(seconds, 1e-9);
}

}  // namespace

int main() {
  const std::size_t images = std::max<std::size_t>(bench::bench_images(), 3);
  const std::size_t timesteps =
      std::min<std::size_t>(bench::bench_timesteps(), 16);
  const std::size_t repeats = 3;

  std::printf("== simulation engine throughput vs input sparsity ==\n");
  std::printf("(mnist-cnn, %zu presentations x %zu timesteps, thresholds "
              "calibrated once at full rate)\n\n",
              images, timesteps);

  // One calibration at full rate; the sweep only changes the encoder.
  api::PipelineOptions opt;
  opt.images = images;
  opt.timesteps = timesteps;
  opt.threads = 1;
  const api::Workload w =
      api::Pipeline(opt).benchmark(snn::mnist_cnn()).run();

  const std::vector<double> rates = {1.0, 0.5, 0.2, 0.1, 0.05, 0.02};
  std::vector<Row> rows;
  for (const double rate : rates) {
    snn::SimConfig cfg;
    cfg.timesteps = timesteps;
    cfg.encoder.max_rate = rate;

    // Measured sparsity of this sweep point.
    snn::ActivityTrace activity;
    for (std::size_t i = 0; i < images; ++i) {
      Rng rng(api::presentation_seed(bench::bench_seed(), i));
      snn::Simulator sim(w.network, cfg);
      activity.add(sim.run(w.test.images[i], rng).trace);
    }

    Row row;
    row.rate = rate;
    row.input_sparsity = activity.input_sparsity();
    row.mean_activity = activity.mean_activity();
    row.engine_tps = time_traces(
        w, cfg, images, repeats,
        [&](const snn::SimConfig& c, const std::vector<float>& img, Rng& rng) {
          return snn::Simulator(w.network, c).run(img, rng);
        });
    row.reference_tps = time_traces(
        w, cfg, images, repeats,
        [&](const snn::SimConfig& c, const std::vector<float>& img, Rng& rng) {
          return snn::simulate_reference(w.network, c, img, rng);
        });
    row.speedup = row.engine_tps / row.reference_tps;
    rows.push_back(row);

    std::printf("rate %4.2f | input sparsity %5.1f%% | activity %6.4f | "
                "engine %8.1f tr/s | reference %8.1f tr/s | speedup %5.2fx\n",
                row.rate, 100.0 * row.input_sparsity, row.mean_activity,
                row.engine_tps, row.reference_tps, row.speedup);
  }

  std::ostringstream config;
  config << "{\"benchmark\": \"mnist-cnn\", \"presentations\": " << images
         << ", \"timesteps\": " << timesteps << ", \"repeats\": " << repeats
         << ", \"calibration\": \"once-at-full-rate\"}";
  std::ostringstream metrics;
  metrics << "{\"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    metrics << "    {\"rate\": " << Table::num(r.rate, 2)
            << ", \"input_sparsity\": " << Table::num(r.input_sparsity, 4)
            << ", \"mean_activity\": " << Table::num(r.mean_activity, 5)
            << ", \"engine_tps\": " << Table::num(r.engine_tps, 1)
            << ", \"reference_tps\": " << Table::num(r.reference_tps, 1)
            << ", \"speedup\": " << Table::num(r.speedup, 2) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  metrics << "  ]}";

  bench::write_trajectory("bench_sparse_execution", config.str(), metrics.str());
  return 0;
}
