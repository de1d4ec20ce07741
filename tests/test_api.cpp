// Tests of the unified accelerator API (src/api): registry behaviour,
// bit-for-bit parity of the backends with the legacy interfaces, and
// thread-count invariance of the batched pipeline.
#include <gtest/gtest.h>

#include "api/backends.hpp"
#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "cmos/falcon.hpp"
#include "core/resparc.hpp"
#include "snn/benchmarks.hpp"

namespace resparc::api {
namespace {

/// Shared small workload: the reduced MNIST MLP with realistic traces.
class ApiWorkload : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions opt;
    opt.images = 3;
    opt.timesteps = 8;
    opt.seed = 11;
    opt.threads = 1;
    workload_ = new Workload(Pipeline(opt)
                                 .dataset(snn::DatasetKind::kMnistLike)
                                 .topology(snn::small_mlp_topology(
                                     snn::DatasetKind::kMnistLike))
                                 .run());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  static Workload* workload_;
};

Workload* ApiWorkload::workload_ = nullptr;

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

// ---------------------------------------------------------------- registry --

TEST(Registry, BuiltinsAreRegistered) {
  for (const char* name : {"resparc", "resparc-32", "resparc-64",
                           "resparc-128", "resparc-256", "cmos", "falcon"})
    EXPECT_NE(make_accelerator(name), nullptr) << name;
}

TEST(Registry, UnknownNameThrowsListingAlternatives) {
  try {
    make_accelerator("no-such-backend");
    FAIL() << "expected BackendError";
  } catch (const BackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-backend"), std::string::npos);
    EXPECT_NE(what.find("resparc"), std::string::npos);
    EXPECT_NE(what.find("cmos"), std::string::npos);
    // The message also lists the mapping strategies a key may select.
    EXPECT_NE(what.find("strategies"), std::string::npos);
    EXPECT_NE(what.find("paper"), std::string::npos);
    EXPECT_NE(what.find("greedy-pack"), std::string::npos);
    EXPECT_NE(what.find("anneal"), std::string::npos);
    EXPECT_NE(what.find("beam"), std::string::npos);
    EXPECT_NE(what.find("auto"), std::string::npos);
  }
}

TEST(Registry, UnknownStrategySuffixThrowsListingStrategies) {
  try {
    make_accelerator("resparc-64/no-such-strategy");
    FAIL() << "expected BackendError";
  } catch (const BackendError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-strategy"), std::string::npos);
    EXPECT_NE(what.find("paper"), std::string::npos);
    EXPECT_NE(what.find("greedy-pack"), std::string::npos);
    EXPECT_NE(what.find("anneal"), std::string::npos);
    EXPECT_NE(what.find("beam"), std::string::npos);
    EXPECT_NE(what.find("auto"), std::string::npos);
  }
}

TEST(Registry, StrategySuffixOnNonCompiledBackendThrows) {
  EXPECT_THROW(make_accelerator("cmos/greedy-pack"), BackendError);
}

TEST(Registry, TrailingSlashThrows) {
  EXPECT_THROW(make_accelerator("resparc-64/"), BackendError);
}

TEST(Registry, TypoInOptionsStrategyThrowsAtCreation) {
  // A bad options.strategy must fail here as BackendError, not later at
  // load() time as a compile error.
  BackendOptions options;
  options.strategy = "blanced";
  EXPECT_THROW(make_accelerator("resparc-64", options), BackendError);
  options.strategy = "";
  EXPECT_THROW(make_accelerator("resparc-64", options), BackendError);
}

TEST(Registry, SizedVariantsOverrideMcaSize) {
  const auto accel = make_accelerator("resparc-32");
  EXPECT_EQ(accel->name(), "RESPARC-32");
  const auto* backend = dynamic_cast<const ResparcBackend*>(accel.get());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->config().mca_size, 32u);
}

TEST(Registry, OptionsReachTheBackend) {
  BackendOptions options;
  options.resparc.event_driven = false;
  options.cmos.weight_bits = 8;
  const auto resparc = make_accelerator("resparc", options);
  const auto cmos = make_accelerator("cmos", options);
  EXPECT_FALSE(dynamic_cast<const ResparcBackend&>(*resparc)
                   .config()
                   .event_driven);
  EXPECT_EQ(dynamic_cast<const CmosBackend&>(*cmos).config().weight_bits, 8);
}

// ------------------------------------------------------------------ parity --

TEST_F(ApiWorkload, ResparcBackendMatchesLegacyChipExactly) {
  const Workload& w = *workload_;

  core::ResparcChip chip(core::default_config());
  chip.load(w.topology());
  const core::RunReport legacy = chip.execute(w.traces);

  const auto accel = make_accelerator("resparc");
  accel->load(w.topology());
  const ExecutionReport report = accel->execute(w.traces);

  ASSERT_TRUE(report.resparc.has_value());
  EXPECT_EQ(report.resparc->energy.total_pj(), legacy.energy.total_pj());
  EXPECT_EQ(report.resparc->energy.neuron_pj, legacy.energy.neuron_pj);
  EXPECT_EQ(report.resparc->energy.crossbar_pj, legacy.energy.crossbar_pj);
  EXPECT_EQ(report.resparc->perf.cycles_pipelined, legacy.perf.cycles_pipelined);
  EXPECT_EQ(report.resparc->events.mca_activations, legacy.events.mca_activations);
  EXPECT_EQ(report.resparc->events.bus_words, legacy.events.bus_words);
  EXPECT_EQ(report.classifications, legacy.classifications);
  EXPECT_EQ(report.energy_pj, legacy.energy.total_pj());
  EXPECT_EQ(report.latency_ns, legacy.perf.latency_pipelined_ns());
}

TEST_F(ApiWorkload, CmosBackendMatchesLegacyFalconExactly) {
  const Workload& w = *workload_;

  const cmos::FalconAccelerator legacy_accel(w.topology(), {});
  const cmos::CmosReport legacy = legacy_accel.run_all(w.traces);

  const auto accel = make_accelerator("cmos");
  accel->load(w.topology());
  const ExecutionReport report = accel->execute(w.traces);

  ASSERT_TRUE(report.cmos.has_value());
  EXPECT_EQ(report.cmos->energy.total_pj(), legacy.energy.total_pj());
  EXPECT_EQ(report.cmos->energy.core_pj, legacy.energy.core_pj);
  EXPECT_EQ(report.cmos->energy.memory_access_pj, legacy.energy.memory_access_pj);
  EXPECT_EQ(report.cmos->cycles, legacy.cycles);
  EXPECT_EQ(report.cmos->events.synops, legacy.events.synops);
  EXPECT_EQ(report.energy_pj, legacy.energy.total_pj());
  EXPECT_EQ(report.latency_ns, legacy.latency_ns());
}

TEST_F(ApiWorkload, MetricsMatchLegacyRollups) {
  const auto resparc = make_accelerator("resparc");
  const core::NeuroCellMetrics nc = core::neurocell_metrics(core::default_config());
  EXPECT_EQ(resparc->metrics().area_mm2, nc.area_mm2);
  EXPECT_EQ(resparc->metrics().power_mw, nc.power_mw);

  const auto cmos = make_accelerator("cmos");
  const cmos::BaselineMetrics bm = cmos::baseline_metrics({});
  EXPECT_EQ(cmos->metrics().area_mm2, bm.area_mm2);
  EXPECT_EQ(cmos->metrics().frequency_mhz, bm.frequency_mhz);
}

TEST_F(ApiWorkload, ExecuteRequiresLoadedNetwork) {
  const auto accel = make_accelerator("resparc");
  EXPECT_THROW(accel->execute(workload_->traces), Error);
  EXPECT_THROW(Pipeline::execute(*accel, workload_->traces), Error);
}

// -------------------------------------------------------- batched execution --

TEST_F(ApiWorkload, BatchedExecuteMatchesSequentialBitForBit) {
  const Workload& w = *workload_;
  for (const char* name : {"resparc", "cmos"}) {
    const auto accel = make_accelerator(name);
    accel->load(w.topology());
    const ExecutionReport sequential = accel->execute(w.traces);
    const ExecutionReport batched = Pipeline::execute(*accel, w.traces, 3);
    EXPECT_EQ(batched.energy_pj, sequential.energy_pj) << name;
    EXPECT_EQ(batched.latency_ns, sequential.latency_ns) << name;
    EXPECT_EQ(batched.classifications, sequential.classifications) << name;
    ASSERT_EQ(batched.energy_breakdown_pj.size(),
              sequential.energy_breakdown_pj.size());
    for (std::size_t i = 0; i < batched.energy_breakdown_pj.size(); ++i) {
      EXPECT_EQ(batched.energy_breakdown_pj[i].first,
                sequential.energy_breakdown_pj[i].first);
      EXPECT_EQ(batched.energy_breakdown_pj[i].second,
                sequential.energy_breakdown_pj[i].second)
          << name << " bucket " << batched.energy_breakdown_pj[i].first;
    }
  }
}

TEST_F(ApiWorkload, BatchedExecuteSumsEventCounters) {
  const Workload& w = *workload_;
  const auto accel = make_accelerator("resparc");
  accel->load(w.topology());
  const ExecutionReport sequential = accel->execute(w.traces);
  const ExecutionReport batched = Pipeline::execute(*accel, w.traces, 2);
  ASSERT_TRUE(batched.resparc.has_value());
  EXPECT_EQ(batched.resparc->events.mca_activations,
            sequential.resparc->events.mca_activations);
  EXPECT_EQ(batched.resparc->events.neuron_fires,
            sequential.resparc->events.neuron_fires);
}

// ---------------------------------------------------- pipeline determinism --

TEST(PipelineDeterminism, ThreadCountDoesNotChangeTheWorkload) {
  PipelineOptions opt;
  opt.images = 4;
  opt.timesteps = 6;
  opt.seed = 23;

  opt.threads = 1;
  Workload single = Pipeline(opt)
                        .dataset(snn::DatasetKind::kMnistLike)
                        .topology(snn::small_mlp_topology(
                            snn::DatasetKind::kMnistLike))
                        .run();
  opt.threads = 4;
  Workload batched = Pipeline(opt)
                         .dataset(snn::DatasetKind::kMnistLike)
                         .topology(snn::small_mlp_topology(
                             snn::DatasetKind::kMnistLike))
                         .run();

  ASSERT_EQ(single.traces.size(), batched.traces.size());
  for (std::size_t i = 0; i < single.traces.size(); ++i)
    expect_traces_equal(single.traces[i], batched.traces[i]);
  EXPECT_EQ(single.predicted, batched.predicted);
  EXPECT_EQ(single.labels, batched.labels);
  EXPECT_EQ(single.accuracy, batched.accuracy);
  EXPECT_EQ(single.mean_activity, batched.mean_activity);
}

TEST(PipelineDeterminism, RepeatedRunsAreIdentical) {
  PipelineOptions opt;
  opt.images = 2;
  opt.timesteps = 5;
  opt.seed = 31;
  const auto build = [&] {
    return Pipeline(opt)
        .dataset(snn::DatasetKind::kMnistLike)
        .topology(snn::small_mlp_topology(snn::DatasetKind::kMnistLike))
        .run();
  };
  Workload a = build();
  Workload b = build();
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i)
    expect_traces_equal(a.traces[i], b.traces[i]);
}

// -------------------------------------------------------------- comparison --

TEST_F(ApiWorkload, CompareRatiosAreRelativeToTheFirstBackend) {
  const Workload& w = *workload_;
  const std::vector<std::string> names{"cmos", "resparc"};
  const ComparisonReport report =
      Pipeline::compare(w.topology(), w.traces, names);

  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.reference().backend, "cmos");
  EXPECT_EQ(report.reference().energy_gain, 1.0);
  EXPECT_EQ(report.reference().speedup, 1.0);

  const ComparisonEntry* resparc = report.find("resparc");
  ASSERT_NE(resparc, nullptr);
  EXPECT_EQ(resparc->energy_gain,
            report.reference().report.energy_pj / resparc->report.energy_pj);
  // The paper's headline: RESPARC wins on energy and latency on MLPs.
  EXPECT_GT(resparc->energy_gain, 1.0);
  EXPECT_GT(resparc->speedup, 1.0);
  EXPECT_EQ(report.find("not-there"), nullptr);
}

// ------------------------------------------------------------ option paths --

TEST(PipelineOptionsPaths, QuantizedWorkloadDiffersFromFloat) {
  PipelineOptions opt;
  opt.images = 2;
  opt.timesteps = 5;
  opt.seed = 13;
  Workload base = Pipeline(opt)
                      .dataset(snn::DatasetKind::kMnistLike)
                      .topology(snn::small_mlp_topology(
                          snn::DatasetKind::kMnistLike))
                      .run();
  opt.weight_bits = 1;
  Workload quantized = Pipeline(opt)
                           .dataset(snn::DatasetKind::kMnistLike)
                           .topology(snn::small_mlp_topology(
                               snn::DatasetKind::kMnistLike))
                           .run();
  // 1-bit weights collapse every magnitude to one level; the stored
  // weights should differ.
  const auto base_w = base.network.layer(0).weights.flat();
  const auto quant_w = quantized.network.layer(0).weights.flat();
  ASSERT_EQ(base_w.size(), quant_w.size());
  EXPECT_FALSE(std::equal(base_w.begin(), base_w.end(), quant_w.begin()));
}

TEST(PipelineOptionsPaths, ProvidedNetworkSurvivesRepeatedRuns) {
  snn::Network net(snn::small_mlp_topology(snn::DatasetKind::kMnistLike));
  Rng rng(3);
  net.init_random(rng, 1.0f);
  net.set_uniform_threshold(1.5);

  PipelineOptions opt;
  opt.images = 2;
  opt.timesteps = 5;
  Pipeline pipeline(opt);
  pipeline.dataset(snn::DatasetKind::kMnistLike).network(net);
  Workload first = pipeline.run();
  Workload second = pipeline.run();  // builder must not be consumed
  ASSERT_EQ(first.traces.size(), second.traces.size());
  for (std::size_t i = 0; i < first.traces.size(); ++i)
    expect_traces_equal(first.traces[i], second.traces[i]);
  // And the workload's network is the caller's, not a random-init one.
  const auto expected = net.layer(0).weights.flat();
  const auto got = second.network.layer(0).weights.flat();
  ASSERT_EQ(expected.size(), got.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), got.begin()));
}

TEST(PipelineOptionsPaths, RecordTracesOffSkipsSimulation) {
  PipelineOptions opt;
  opt.images = 2;
  opt.timesteps = 5;
  opt.record_traces = false;
  Workload w = Pipeline(opt)
                   .dataset(snn::DatasetKind::kMnistLike)
                   .topology(snn::small_mlp_topology(
                       snn::DatasetKind::kMnistLike))
                   .run();
  EXPECT_TRUE(w.traces.empty());
  EXPECT_EQ(w.test.size(), 2u);
  EXPECT_EQ(w.labels.size(), 2u);
}

TEST(PipelineOptionsPaths, MismatchedTopologyInputThrows) {
  PipelineOptions opt;
  opt.images = 1;
  Pipeline pipeline(opt);
  pipeline.dataset(snn::DatasetKind::kMnistLike)
      .topology(snn::Topology("odd", Shape3{1, 1, 10},
                              {snn::LayerSpec::dense(4)}));
  EXPECT_THROW(pipeline.run(), ConfigError);
}

}  // namespace
}  // namespace resparc::api
