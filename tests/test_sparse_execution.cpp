// Tests of the spike-event-driven simulation engine
// (snn/sparse_engine.hpp, docs/execution.md) and the event records it
// feeds:
//   * engine-vs-reference bit-for-bit parity across every bundled
//     topology shape (MLP and CNN, leaky and paper-scale);
//   * ActivityTrace accumulation;
//   * the all-zero-input regression: under the event-driven executor an
//     empty trace must be (almost) free — every array skipped, nothing
//     transferred, zero cycles.
#include <gtest/gtest.h>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "snn/activity.hpp"
#include "snn/benchmarks.hpp"
#include "snn/simulator.hpp"

namespace resparc {
namespace {

using api::Pipeline;
using api::PipelineOptions;
using api::Workload;

void expect_traces_equal(const snn::SpikeTrace& a, const snn::SpikeTrace& b) {
  ASSERT_EQ(a.layer_count(), b.layer_count());
  ASSERT_EQ(a.timesteps(), b.timesteps());
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    for (std::size_t t = 0; t < a.timesteps(); ++t) {
      const auto wa = a.layers[l][t].words();
      const auto wb = b.layers[l][t].words();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i)
        ASSERT_EQ(wa[i], wb[i]) << "layer " << l << " step " << t;
    }
  }
}

constexpr std::uint64_t kSeed = 11;

Workload run_workload(const snn::Topology& topology, snn::DatasetKind kind,
                      std::size_t images = 2, std::size_t timesteps = 8) {
  PipelineOptions opt;
  opt.images = images;
  opt.timesteps = timesteps;
  opt.seed = kSeed;
  opt.threads = 1;
  return Pipeline(opt).dataset(kind).topology(topology).run();
}

/// The engine's traces in `w` must equal the dense reference simulation
/// of the same network, images and presentation seeds.
void expect_matches_reference(const Workload& w, std::size_t timesteps,
                              std::uint64_t seed = kSeed) {
  snn::SimConfig cfg;
  cfg.timesteps = timesteps;
  ASSERT_FALSE(w.traces.empty());
  for (std::size_t i = 0; i < w.traces.size(); ++i) {
    Rng rng(api::presentation_seed(seed, i));
    const snn::SimResult want =
        snn::simulate_reference(w.network, cfg, w.test.images[i], rng);
    expect_traces_equal(want.trace, w.traces[i]);
    EXPECT_EQ(want.predicted_class, w.predicted[i]) << "presentation " << i;
  }
}

// ---------------------------------------------- engine/reference parity ----

struct BundledCase {
  const char* name;
  snn::Topology topology;
};

// Prints only the case name, so the listed test names are the same on
// every build (gtest's default would print the name's address and the
// topology's raw bytes, heap pointers included).
void PrintTo(const BundledCase& c, std::ostream* os) {
  *os << '(' << c.name << ')';
}

class SparseParity : public ::testing::TestWithParam<BundledCase> {};

TEST_P(SparseParity, TracesAreBitForBitIdentical) {
  const Workload w =
      run_workload(GetParam().topology, snn::DatasetKind::kMnistLike);
  expect_matches_reference(w, 8);
}

INSTANTIATE_TEST_SUITE_P(
    BundledTopologies, SparseParity,
    ::testing::Values(
        BundledCase{"small_mlp",
                    snn::small_mlp_topology(snn::DatasetKind::kMnistLike)},
        BundledCase{"small_cnn",
                    snn::small_cnn_topology(snn::DatasetKind::kMnistLike)}),
    [](const auto& info) { return std::string(info.param.name); });

// Paper-scale shapes, one image each, so the parity claim covers the
// exact benchmark topologies too (conv sliced + windowed + pool paths).
TEST(SparseParityPaperScale, MnistMlpAndCnn) {
  for (const snn::BenchmarkSpec& spec : {snn::mnist_mlp(), snn::mnist_cnn()})
    expect_matches_reference(run_workload(spec.topology, spec.dataset, 1, 6),
                             6);
}

// Leaky populations fall back to the whole-population neuron update
// inside the engine; the result must still be identical.
TEST(SparseParity, LeakyNetworkFallsBackBitForBit) {
  snn::Network net(snn::small_mlp_topology(snn::DatasetKind::kMnistLike));
  Rng init(3);
  net.init_random(init, 1.0f);
  net.set_uniform_threshold(0.8);
  for (std::size_t l = 0; l < net.layer_count(); ++l)
    net.layer(l).neuron.leak_per_step = 0.01;

  PipelineOptions opt;
  opt.images = 2;
  opt.timesteps = 8;
  opt.threads = 1;
  const Workload w =
      Pipeline(opt).dataset(snn::DatasetKind::kMnistLike).network(net).run();
  expect_matches_reference(w, 8, opt.seed);
}

// ------------------------------------------------------- activity trace ----

TEST(ActivityTrace, AccumulatesAndMatchesMeanActivity) {
  const Workload w =
      run_workload(snn::small_mlp_topology(snn::DatasetKind::kMnistLike),
                   snn::DatasetKind::kMnistLike, 3);
  ASSERT_EQ(w.activity.presentations, w.traces.size());
  ASSERT_EQ(w.activity.layer_count(), w.traces.front().layer_count());
  EXPECT_NEAR(w.activity.mean_activity(), w.mean_activity, 1e-12);
  EXPECT_GT(w.activity.layers[0].total_spikes(), 0u);
  EXPECT_GE(w.activity.input_sparsity(), 0.0);
  EXPECT_LE(w.activity.input_sparsity(), 1.0);
}

TEST(ActivityTrace, RejectsMismatchedAccumulation) {
  const Workload mlp =
      run_workload(snn::small_mlp_topology(snn::DatasetKind::kMnistLike),
                   snn::DatasetKind::kMnistLike, 1);
  const Workload cnn =
      run_workload(snn::small_cnn_topology(snn::DatasetKind::kMnistLike),
                   snn::DatasetKind::kMnistLike, 1);
  snn::ActivityTrace acc = snn::ActivityTrace::from_trace(mlp.traces.front());
  EXPECT_THROW(acc.add(cnn.traces.front()), snn::ActivityError);
}

// ------------------------------------------- all-zero-input regression ----

// With the event-driven levers on, a presentation that never spikes must
// cost (almost) nothing: every MCA skipped, nothing staged, transferred
// or integrated, zero cycles.  This pins the executor's zero-activity
// floor so event accounting can never silently regress into charging
// idle hardware.
TEST(ZeroInputRegression, EmptyTraceIsAlmostFree) {
  const snn::Topology topo =
      snn::small_cnn_topology(snn::DatasetKind::kMnistLike);
  const std::size_t T = 6;
  snn::SpikeTrace empty;
  empty.layers.resize(topo.layer_count() + 1);
  empty.layers[0].assign(T, snn::SpikeVector(topo.input_shape().size()));
  for (std::size_t l = 0; l < topo.layer_count(); ++l)
    empty.layers[l + 1].assign(T, snn::SpikeVector(topo.layers()[l].neurons));

  api::ResparcBackend chip(core::config_with_mca(64));
  chip.load(topo);
  const core::RunReport r = *chip.execute(empty).resparc;
  const core::EventCounts& ev = r.events;

  EXPECT_EQ(ev.mca_activations, 0u);
  EXPECT_EQ(ev.bus_words, 0u);
  EXPECT_EQ(ev.switch_flits, 0u);
  EXPECT_EQ(ev.sram_reads, 0u);
  EXPECT_EQ(ev.sram_writes, 0u);
  EXPECT_EQ(ev.neuron_fires, 0u);
  EXPECT_EQ(ev.neuron_integrations, 0u);
  EXPECT_EQ(ev.ccu_transfers, 0u);
  EXPECT_EQ(ev.buffer_bits, 0u);

  // Every array of every layer is skipped on every step.
  EXPECT_EQ(ev.mca_skips, chip.mapping().total_mcas * T);

  // No stage ever advances: zero cycles, zero latency, zero leakage
  // window.  With every counter above at 0, no (timestep, stage) of the
  // replay saw an event.
  EXPECT_DOUBLE_EQ(r.perf.cycles_pipelined, 0.0);
  EXPECT_DOUBLE_EQ(r.perf.latency_pipelined_ns(), 0.0);
  EXPECT_DOUBLE_EQ(r.energy.crossbar_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.neuron_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.buffer_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.comm_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.leakage_pj, 0.0);
}

}  // namespace
}  // namespace resparc
