// The benchmark workloads behind one interface (perfbench/README.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compile/program.hpp"
#include "harness.hpp"
#include "snn/activity.hpp"
#include "snn/benchmarks.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< trace files and program-cache blobs
};

/// End-to-end figures of one timed phase.
struct PhaseFigures {
  double latency_p50_ms = 0.0;
  double throughput_rps = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< rejected + failed
  std::string summary;       ///< one human-readable line
};

/// Per-layer values a workload fills in; names missing here are
/// reported as 0 (the layer is not called on this workload).
using LayerValues = std::map<std::string, double>;

/// A workload: set-up (run several times, the last one is kept), an
/// untimed warm-up, one or two timed phases, and the output checks.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the timed phase needs, replacing the previous
  /// set-up.  Timed from outside as setup_s.
  virtual void setup() = 0;
  /// Untimed traffic so lazy state is built before timing.
  virtual void warmup() = 0;
  /// One timed phase; `index` 0 is untraced, 1 the traced repeat.
  virtual PhaseFigures timed(std::size_t index) = 0;
  /// Output checks, outside every timed phase.  Mismatches are added to
  /// result.failed with a line in result.failures.
  virtual void check(Result& result) = 0;
  /// Workload-specific per-layer values (model outputs, counts, serve
  /// stamps); span medians are filled in by the caller.
  virtual void layer_values(const std::vector<Span>& spans,
                            LayerValues& values) = 0;
};

std::unique_ptr<Workload> make_serve_cnn_image(const Options& options);
std::unique_ptr<Workload> make_sweep_cnn_dim(const Options& options);

// ------------------------------------------------ shared set-up helpers --

/// Timesteps of every presentation (the simulator default).
inline constexpr std::size_t kTimesteps = 32;
/// Images that drive threshold calibration (the Pipeline default).
inline constexpr std::size_t kCalibrationImages = 2;
/// Per-layer calibration target: the paper's ~10% activity regime.
inline constexpr double kTargetActivity = 0.10;

/// Seed of the served model (weights and calibration images).  The
/// model is part of the system under test, not of its input, so it does
/// not change with --seed; the images and spike streams do.
inline constexpr std::uint64_t kModelSeed = 7;

/// The random-init network of `spec`, calibrated at full input rate on
/// kCalibrationImages synthetic images (spans data.synth and
/// snn.calibrate).
resparc::snn::Network prepare_network(const resparc::snn::BenchmarkSpec& spec);

/// A compiled program and what the verifier said about it.
struct VerifiedProgram {
  resparc::compile::CompiledProgram program;
  bool ok = false;                    ///< no error-severity finding
  std::vector<std::string> findings;  ///< every finding, one line each
};

/// Compiles with `strategy` for the chip of `backend_key` (spans
/// compile.paper / compile.search and verify.verify) and verifies the
/// program against the topology.
VerifiedProgram compile_verified(const resparc::snn::Topology& topology,
                                 const std::string& backend_key,
                                 const std::string& strategy);

/// Fails `result` when a program has an error-severity finding and
/// prints every distinct finding once.
void report_findings(const std::vector<const VerifiedProgram*>& programs,
                     Result& result);

/// Serialises the program and loads it back through the verifying
/// loader (span verify.load).  False when the reloaded program does not
/// re-serialise to the same bytes.
bool round_trip(const resparc::compile::CompiledProgram& program,
                const std::string& backend_key, std::string* blob_out);

/// A RESPARC backend built from `key` with `program` loaded.
std::unique_ptr<resparc::api::Accelerator> load_resparc(
    const std::string& key, const resparc::snn::Topology& topology,
    const resparc::compile::CompiledProgram& program, bool event_noc);

/// snn.presentations, snn.spikes_per_presentation, snn.input_sparsity
/// and snn.mean_activity of the accumulated traces.
void activity_values(const resparc::snn::ActivityTrace& activity,
                     LayerValues& values);

/// Reference presentations behind the model rows.
inline constexpr std::size_t kModelImages = 8;

/// The model rows (core.*, noc.cycles_stall, cmos.energy_pj): means over
/// kModelImages reference presentations made from kModelSeed alone
/// (synthetic images simulated under `config`), replayed on `chip` and
/// on `cmos`, plus the program's MCA count.  They do not depend on
/// --seed, so they are bit-identical across every run.
void model_values(const resparc::snn::Network& network,
                  resparc::snn::DatasetKind dataset,
                  const resparc::snn::SimConfig& config,
                  const resparc::api::Accelerator& chip,
                  const resparc::api::Accelerator& cmos,
                  const resparc::compile::CompiledProgram& program,
                  LayerValues& values);

}  // namespace perfbench
