// sweep-cnn-dim: the paper's offline experiment.  The MNIST CNN is
// calibrated at full input rate and presented dimmed (encoder max_rate
// 0.05, ~99% input sparsity).  One sweep pass simulates a batch through
// api::Pipeline on the thread pool, compiles with paper and anneal at two
// MCA sizes, replays every program under the event NoC and replays on
// cmos.  The timed phase repeats passes for --seconds.
#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <thread>

#include "api/pipeline.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "snn/simulator.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace resparc;

namespace {

class SweepCnnDim final : public Workload {
 public:
  static constexpr std::size_t kPresentations = 512;
  static constexpr double kDimRate = 0.05;
  static constexpr std::size_t kMinPasses = 3;
  static constexpr std::size_t kSimSample = 8;
  static constexpr std::size_t kReplaySample = 16;

  explicit SweepCnnDim(const Options& options) : options_(options) {}

  void setup() override {
    const snn::BenchmarkSpec spec = snn::mnist_cnn();
    dataset_ = spec.dataset;
    network_.emplace(prepare_network(spec));
  }

  void warmup() override {
    Tracer::instance().set_phase(Phase::kWarmup);
    reference_ = run_pass();
  }

  PhaseFigures timed(std::size_t) override {
    Tracer::instance().set_phase(Phase::kTimed);
    std::vector<double> pass_ms;
    const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            options_.seconds));
    while (pass_ms.size() < kMinPasses || Clock::now() < end) {
      const auto t0 = Clock::now();
      const Pass pass = run_pass();
      pass_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      // Every pass must reproduce the warm-up pass exactly.
      for (std::size_t k = 0; k < pass.reports.size(); ++k)
        if (!same_report(pass.reports[k], reference_->reports[k]))
          ++pass_mismatches_;
      for (std::size_t k = 0; k < pass.programs.size(); ++k)
        if (pass.programs[k].findings != reference_->programs[k].findings)
          ++changed_findings_;
    }
    PhaseFigures f;
    f.latency_p50_ms = median(pass_ms);
    f.throughput_rps =
        static_cast<double>(kPresentations) / (f.latency_p50_ms * 1e-3);
    f.attempted = pass_ms.size() * reference_->reports.size();
    std::ostringstream summary;
    summary << pass_ms.size() << " sweep passes of " << kPresentations
            << " presentations: median " << f.latency_p50_ms
            << " ms (sweep_s " << f.latency_p50_ms * 1e-3 << "), p90 "
            << quantile(pass_ms, 0.90) << " ms, slowest "
            << *std::max_element(pass_ms.begin(), pass_ms.end()) << " ms, "
            << f.throughput_rps
            << " presentations/s";
    f.summary = summary.str();
    return f;
  }

  void check(Result& result) override {
    Tracer::instance().set_phase(Phase::kCheck);
    const Pass& ref = *reference_;
    if (pass_mismatches_ > 0)
      result.fail(std::to_string(pass_mismatches_) +
                      " timed replays differ from the warm-up pass",
                  pass_mismatches_);
    std::vector<const VerifiedProgram*> programs;
    for (const VerifiedProgram& p : ref.programs) programs.push_back(&p);
    report_findings(programs, result);
    if (changed_findings_ > 0)
      result.fail("verifier findings changed between sweep passes",
                  changed_findings_);

    // Batched Pipeline::execute against a one-thread replay of the same
    // traces, one program per thread.
    std::vector<api::ExecutionReport> one_thread(ref.accelerators.size());
    std::vector<std::exception_ptr> errors(ref.accelerators.size());
    {
      std::vector<std::thread> threads;
      for (std::size_t k = 0; k < ref.accelerators.size(); ++k)
        threads.emplace_back([&, k] {
          try {
            one_thread[k] = ref.accelerators[k]->execute(ref.workload->traces);
          } catch (...) {
            errors[k] = std::current_exception();
          }
        });
      for (auto& t : threads) t.join();
    }
    for (const std::exception_ptr& error : errors)
      if (error) std::rethrow_exception(error);
    std::size_t mismatched = 0;
    for (std::size_t k = 0; k < one_thread.size(); ++k)
      if (!same_report(one_thread[k], ref.reports[k])) ++mismatched;
    if (mismatched > 0)
      result.fail(std::to_string(mismatched) +
                      " batched replays differ from a one-thread replay",
                  mismatched);

    // The batch's traces against a one-thread simulator.
    snn::SimConfig config;
    config.timesteps = kTimesteps;
    config.encoder.max_rate = kDimRate;
    snn::Simulator simulator(*network_, config);
    std::size_t sim_mismatch = 0;
    for (std::size_t i = 0; i < kSimSample; ++i) {
      const std::size_t k = i * (kPresentations / kSimSample);
      Rng rng(api::presentation_seed(options_.seed, k));
      const snn::SimResult sim = traced("snn.simulate", [&] {
        return simulator.run(ref.workload->test.images[k], rng);
      });
      if (!same_trace(sim.trace, ref.workload->traces[k])) ++sim_mismatch;
    }
    if (sim_mismatch > 0)
      result.fail(std::to_string(sim_mismatch) +
                      " batch traces differ from a one-thread simulation",
                  sim_mismatch);

    // Single-trace replay cost under the event NoC and on cmos.
    const api::Accelerator& event = *ref.accelerators[kAnneal64];
    const api::Accelerator& cmos = *ref.accelerators.back();
    for (std::size_t i = 0; i < kReplaySample; ++i) {
      const auto& trace =
          ref.workload->traces[i * (kPresentations / kReplaySample)];
      traced("noc.event_replay", [&] { return event.execute(trace); });
      traced("cmos.replay", [&] { return cmos.execute(trace); });
    }

    if (!round_trip(ref.programs[kAnneal64].program, "resparc-64", nullptr))
      result.fail("program blob does not round-trip");
  }

  void layer_values(const std::vector<Span>& spans,
                    LayerValues& values) override {
    const Pass& ref = *reference_;
    snn::SimConfig config;
    config.timesteps = kTimesteps;
    config.encoder.max_rate = kDimRate;
    model_values(*network_, dataset_, config, *ref.accelerators[kAnneal64],
                 *ref.accelerators.back(), ref.programs[kAnneal64].program,
                 values);
    activity_values(ref.workload->activity, values);
    // Thread-pool efficiency of the batch simulation: one-thread work
    // (median snn.simulate) over pool width x batch wall time.
    const double simulate_ms = median(span_ms(spans, "snn.simulate"));
    const double batch_ms = median(span_ms(spans, "api.batch_simulate"));
    const double width = static_cast<double>(ThreadPool::global().width());
    if (batch_ms > 0.0)
      values["common.pool_efficiency"] =
          static_cast<double>(kPresentations) * simulate_ms / (width * batch_ms);
  }

 private:
  /// Program order: paper and anneal at MCA 64, then at MCA 128.
  static constexpr std::size_t kAnneal64 = 1;

  struct Pass {
    std::optional<api::Workload> workload;
    std::vector<VerifiedProgram> programs;
    /// One per program (event NoC), then cmos last.
    std::vector<std::unique_ptr<api::Accelerator>> accelerators;
    std::vector<api::ExecutionReport> reports;
  };

  Pass run_pass() {
    Pass pass;
    api::PipelineOptions options;
    options.images = kPresentations;
    options.timesteps = kTimesteps;
    options.seed = options_.seed;
    options.encoder.max_rate = kDimRate;
    pass.workload.emplace(traced("api.batch_simulate", [&] {
      return api::Pipeline(options).dataset(dataset_).network(*network_).run();
    }));
    const snn::Topology& topology = pass.workload->topology();
    for (const char* backend : {"resparc-64", "resparc-128"}) {
      for (const char* strategy : {"paper", "anneal"}) {
        pass.programs.push_back(compile_verified(topology, backend, strategy));
        pass.accelerators.push_back(load_resparc(
            backend, topology, pass.programs.back().program, /*event_noc=*/true));
      }
    }
    pass.accelerators.push_back(api::make_accelerator("cmos"));
    pass.accelerators.back()->load(topology);
    for (const auto& accelerator : pass.accelerators)
      pass.reports.push_back(traced("api.batch_replay", [&] {
        return api::Pipeline::execute(*accelerator, pass.workload->traces);
      }));
    return pass;
  }

  Options options_;
  snn::DatasetKind dataset_ = snn::DatasetKind::kMnistLike;
  std::optional<snn::Network> network_;
  std::optional<Pass> reference_;
  std::size_t pass_mismatches_ = 0;
  std::size_t changed_findings_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_cnn_dim(const Options& options) {
  return std::make_unique<SweepCnnDim>(options);
}

}  // namespace perfbench
