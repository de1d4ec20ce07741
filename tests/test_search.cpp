// Contract tests of the search-based mapping strategies
// (src/compile/search, docs/compile.md): thread-count determinism of the
// searched programs, the heterogeneous-MCA verifier invariants the
// search relies on (exact RV-* codes), bit-for-bit engine parity on
// mixed-size chips, and the SearchOptions sanitisation/env seams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "api/backends.hpp"
#include "common/rng.hpp"
#include "compile/compiler.hpp"
#include "compile/program.hpp"
#include "compile/search/search.hpp"
#include "compile/strategy.hpp"
#include "core/config.hpp"
#include "snn/benchmarks.hpp"
#include "snn/fuzz.hpp"
#include "snn/simulator.hpp"
#include "verify/verifier.hpp"

namespace resparc {
namespace {

using compile::CompiledProgram;
using compile::Compiler;
using compile::search::SearchOptions;

std::string serialized(const CompiledProgram& program) {
  std::ostringstream os;
  program.save(os);
  return os.str();
}

/// Compiles `topology` with an anneal strategy built from `options` at
/// the default chip configuration.
CompiledProgram compile_anneal(const SearchOptions& options,
                               const snn::Topology& topology) {
  return Compiler(core::default_config())
      .compile(topology, *compile::search::make_anneal_strategy(options));
}

// ------------------------------------------------------------ determinism --

// The searched program must be bit-identical for any thread count: all
// random draws come from SplitMix64 streams of the seed, candidates are
// scored into pre-sized slots, and every reduction runs sequentially.
TEST(SearchDeterminism, AnnealIsByteIdenticalAcrossThreadCounts) {
  const snn::Topology& topology = snn::mnist_cnn().topology;
  std::vector<std::string> blobs;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SearchOptions opt;  // defaults, env-independent
    opt.threads = threads;
    blobs.push_back(serialized(compile_anneal(opt, topology)));
  }
  EXPECT_EQ(blobs[0], blobs[1]) << "threads=1 vs threads=4";
  EXPECT_EQ(blobs[0], blobs[2]) << "threads=1 vs threads=8";
}

TEST(SearchDeterminism, BeamIsByteIdenticalAcrossThreadCounts) {
  const snn::Topology& topology = snn::mnist_cnn().topology;
  std::vector<std::string> blobs;
  for (const std::size_t threads : {1u, 8u}) {
    SearchOptions opt;
    opt.threads = threads;
    blobs.push_back(serialized(Compiler(core::default_config())
        .compile(topology, *compile::search::make_beam_strategy(opt))));
  }
  EXPECT_EQ(blobs[0], blobs[1]);
}

// Same seed -> same program, different seed -> (for this workload) a
// search that still verifies clean; the seed is the only entropy source.
TEST(SearchDeterminism, RepeatedCompilesAreIdentical) {
  const snn::Topology& topology = snn::mnist_mlp().topology;
  SearchOptions opt;
  const std::string a = serialized(compile_anneal(opt, topology));
  const std::string b = serialized(compile_anneal(opt, topology));
  EXPECT_EQ(a, b);
}

// ------------------------------------------------- heterogeneous programs --

// The paper-scale CNN search must actually exercise heterogeneous MCA
// mixes (per-layer sizes away from the chip default) and the result must
// verify clean against the topology.  Default options are deterministic,
// so this pins the headline behaviour, not a lucky run.
TEST(SearchHeterogeneous, SearchedCnnProgramMixesSizesAndVerifies) {
  const snn::BenchmarkSpec spec = snn::mnist_cnn();
  const CompiledProgram program =
      compile_anneal(SearchOptions{}, spec.topology);
  std::size_t mixed = 0;
  for (const auto& lm : program.mapping.layers)
    if (lm.mca_size != 0) ++mixed;
  EXPECT_GE(mixed, 1u) << "search found no heterogeneous sizes";
  verify::VerifyOptions options;
  options.topology = &spec.topology;
  const verify::VerifyReport report = verify::verify_program(program, options);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// A mixed-size program must round-trip through the blob format with the
// per-layer sizes intact (serialization v3 carries mca_size per layer).
TEST(SearchHeterogeneous, MixedSizeProgramRoundTripsThroughTheBlob) {
  const snn::BenchmarkSpec spec = snn::mnist_cnn();
  const CompiledProgram program =
      compile_anneal(SearchOptions{}, spec.topology);
  std::istringstream is(serialized(program));
  const CompiledProgram reparsed =
      CompiledProgram::load(is, core::default_config());
  ASSERT_EQ(reparsed.mapping.layers.size(), program.mapping.layers.size());
  for (std::size_t l = 0; l < program.mapping.layers.size(); ++l) {
    EXPECT_EQ(reparsed.mapping.layers[l].mca_size,
              program.mapping.layers[l].mca_size) << "layer " << l;
    EXPECT_EQ(reparsed.mapping.layer_mca_size(l),
              program.mapping.layer_mca_size(l)) << "layer " << l;
  }
}

// ------------------------------------------------- NeuroCell alignment --

// 192-wide dense layers are 9 MCAs = 3 mPEs each at MCA 64, so under the
// paper placement the sixth layer straddles mPE 15/16 (the NeuroCell
// edge) and its boundary traffic crosses the serial bus.  Both searches
// must leave every layer inside one NeuroCell and cross the bus less
// often than paper (4 boundaries; anneal finds 3, beam 2).  With one
// array size on offer, a size change cannot bump a layer to a fresh
// NeuroCell, so the align gene alone must do it.
TEST(SearchAlignment, StraddlingLayersAreAlignedToNeurocells) {
  const snn::Topology t("straddle", Shape3{1, 1, 192},
                        std::vector<snn::LayerSpec>(7, snn::LayerSpec::dense(192)));
  const Compiler compiler(core::config_with_mca(64));
  const CompiledProgram paper = compiler.compile(t, "paper");
  SearchOptions one_size;
  one_size.sizes = {64};
  for (const SearchOptions& opt : {SearchOptions{}, one_size}) {
    for (const auto& strategy : {compile::search::make_anneal_strategy(opt),
                                 compile::search::make_beam_strategy(opt)}) {
      const std::string label = strategy->name() + " with " +
                                std::to_string(opt.sizes.size()) + " sizes";
      const CompiledProgram searched = compiler.compile(t, *strategy);
      EXPECT_LT(searched.cost.bus_boundaries, paper.cost.bus_boundaries)
          << label;
      for (const auto& lm : searched.mapping.layers)
        EXPECT_EQ(lm.first_nc, lm.last_nc) << label << " layer " << lm.layer;
    }
  }
}

// --------------------------------------------------- verifier invariants --

// Hand-built damage: an out-of-range per-layer size must be caught with
// the exact capacity code, both on the program object and through the
// serialized-blob lint path.
TEST(SearchVerifier, OutOfRangeLayerSizeIsCaught) {
  const CompiledProgram base = Compiler(core::default_config())
      .compile(snn::mnist_mlp().topology, "paper");
  for (const std::size_t bad : {4u, 2048u}) {
    CompiledProgram program = base;
    program.mapping.layers[0].mca_size = bad;
    const verify::VerifyReport report = verify::verify_program(program);
    EXPECT_TRUE(report.has("RV-CAP-MCA-SIZE"))
        << "size " << bad << "\n" << report.to_string();
    // The same damage written to a blob is a lint finding, not a crash.
    const verify::VerifyReport blob_report =
        verify::verify_blob(serialized(program), core::default_config());
    EXPECT_TRUE(blob_report.has("RV-CAP-MCA-SIZE")) << "size " << bad;
  }
}

// Two array sizes inside one NeuroCell violate the fabric's peripheral
// pitch (one mPE hosts one size).  Damage a layer that shares a cell
// with its neighbour and demand the exact code.
TEST(SearchVerifier, MixedSizesInOneNeuroCellAreCaught) {
  CompiledProgram program = Compiler(core::default_config())
      .compile(snn::mnist_mlp().topology, "paper");
  const auto& layers = program.mapping.layers;
  std::size_t victim = layers.size();
  for (std::size_t l = 0; l + 1 < layers.size(); ++l)
    if (layers[l + 1].first_nc <= layers[l].last_nc) victim = l + 1;
  ASSERT_LT(victim, layers.size())
      << "paper placement no longer shares NeuroCells; rebuild the test";
  program.mapping.layers[victim].mca_size = 32;
  const verify::VerifyReport report = verify::verify_program(program);
  EXPECT_TRUE(report.has("RV-CAP-NC-MIXED-SIZE")) << report.to_string();
  const verify::VerifyReport blob_report =
      verify::verify_blob(serialized(program), core::default_config());
  EXPECT_TRUE(blob_report.has("RV-CAP-NC-MIXED-SIZE"));
}

// ------------------------------------------------------- engine parity --

// Differential sweep over random legal workloads: the engine's trace and
// the dense reference's must replay bit-for-bit identically on the
// searched (potentially mixed-size) program — the same parity the
// homogeneous fuzz layer enforces, now over heterogeneous chips.
TEST(SearchDifferential, MixedSizeProgramsReplayIdenticallyOnAllEngines) {
  constexpr std::uint64_t kSweep = 6;
  SearchOptions opt;
  opt.rounds = 4;
  opt.proposals = 4;
  opt.elites = 3;
  opt.calibration_steps = 4;
  opt.polish = 1;
  const auto strategy = compile::search::make_anneal_strategy(opt);

  std::size_t mixed_cases = 0;
  for (std::uint64_t seed = 0; seed < kSweep; ++seed) {
    const snn::FuzzCase c = snn::make_fuzz_case(seed);
    const snn::Network net = snn::make_fuzz_network(c);
    snn::SimConfig cfg;
    cfg.timesteps = c.timesteps;
    cfg.encoder = c.encoder;
    cfg.record_trace = true;
    snn::Simulator sim(net, cfg);
    Rng rng(c.seed ^ 0x5ea2c4f11ull);
    const std::vector<snn::SpikeTrace> traces = {sim.run(c.image, rng).trace};
    Rng ref_rng(c.seed ^ 0x5ea2c4f11ull);
    const std::vector<snn::SpikeTrace> ref_traces = {
        snn::simulate_reference(net, cfg, c.image, ref_rng).trace};

    core::ResparcConfig chip = core::default_config();
    chip.mca_size = c.mca_size;
    api::ResparcBackend backend(chip);
    backend.load_program(c.topology,
                         Compiler(chip).compile(c.topology, *strategy));
    const api::ExecutionReport ref = backend.execute(ref_traces);
    for (const auto& lm : backend.mapping().layers)
      if (lm.mca_size != 0) {
        ++mixed_cases;
        break;
      }
    const api::ExecutionReport r = backend.execute(traces);
    EXPECT_EQ(r.energy_pj, ref.energy_pj) << c.summary();
    EXPECT_EQ(r.latency_ns, ref.latency_ns) << c.summary();
  }
  // The sweep must actually exercise heterogeneous mixes somewhere, or
  // the parity claim above is vacuous for mixed-size chips.
  EXPECT_GE(mixed_cases, 1u);
}

// ------------------------------------------------------------- options --

// Sanitisation: garbage sizes are dropped, the chip's own size is always
// a candidate, and zero counts are clamped — a degenerate SearchOptions
// still compiles a clean program instead of throwing.
TEST(SearchOptionsSeam, DegenerateOptionsStillCompileClean) {
  SearchOptions opt;
  opt.sizes = {1, 4096};  // all outside [8, 1024]: dropped
  opt.rounds = 0;
  opt.proposals = 0;
  opt.elites = 0;
  opt.calibration_steps = 0;
  opt.polish = 0;
  opt.activity = -3.0;
  const CompiledProgram program =
      compile_anneal(opt, snn::mnist_mlp().topology);
  const verify::VerifyReport report = verify::verify_program(program);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(program.strategy, "anneal");
}

// The env seams the bench/CI jobs steer the search with.
TEST(SearchOptionsSeam, FromEnvReadsBudgetAndSeed) {
  ASSERT_EQ(setenv("RESPARC_SEARCH_BUDGET", "5", 1), 0);
  ASSERT_EQ(setenv("RESPARC_BENCH_SEED", "99", 1), 0);
  const SearchOptions opt = SearchOptions::from_env();
  EXPECT_EQ(opt.rounds, 5u);
  EXPECT_EQ(opt.seed, 99u);
  // The budget only ever lowers `rounds`; a value that is not a
  // non-negative decimal integer is ignored rather than wrapped.
  for (const char* ignored : {"-1", "1000", "12abc", "", "99999999999999999999"}) {
    ASSERT_EQ(setenv("RESPARC_SEARCH_BUDGET", ignored, 1), 0);
    EXPECT_EQ(SearchOptions::from_env().rounds, SearchOptions{}.rounds)
        << "budget \"" << ignored << "\"";
  }
  ASSERT_EQ(setenv("RESPARC_BENCH_SEED", "-1", 1), 0);
  EXPECT_EQ(SearchOptions::from_env().seed, SearchOptions{}.seed);
  ASSERT_EQ(unsetenv("RESPARC_SEARCH_BUDGET"), 0);
  ASSERT_EQ(unsetenv("RESPARC_BENCH_SEED"), 0);
  const SearchOptions defaults = SearchOptions::from_env();
  EXPECT_EQ(defaults.rounds, SearchOptions{}.rounds);
  EXPECT_EQ(defaults.seed, SearchOptions{}.seed);
}

}  // namespace
}  // namespace resparc
