// serve-cnn-image: raw MNIST-like images served to one serve::Server
// tenant running the paper-scale MNIST CNN on resparc-64/anneal.  The
// server encodes, simulates and replays every request.  One generator
// thread drives it, first open loop (Poisson arrivals at a fixed rate,
// latency from due time to delivery) and then closed loop (a fixed
// number of requests outstanding, throughput).
#include <algorithm>
#include <array>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "api/backends.hpp"
#include "common/rng.hpp"
#include "compile/program.hpp"
#include "data/synthetic.hpp"
#include "serve/server.hpp"
#include "snn/activity.hpp"
#include "snn/simulator.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace resparc;

namespace {

enum class Loop : std::uint64_t { kWarmup = 1, kOpen = 2, kClosed = 3 };

/// Request pool: the run's input, made from --seed.
constexpr std::size_t kPool = 256;
/// Open loop: Poisson arrivals at this rate, well below the ~55 rps the
/// closed loop reaches, for this share of --seconds; the closed loop
/// runs the rest with this many requests outstanding.
constexpr double kOpenRateRps = 25.0;
constexpr double kOpenShare = 0.75;
constexpr std::size_t kOutstanding = 16;
constexpr std::size_t kWarmupRequests = 24;

/// The open loop is scored in up to this many windows of consecutive
/// requests, each with at least kMinWindow requests (ten beyond its
/// p90); the closed loop in this many equal time slices.  Each figure is
/// the median over windows, so a host stall that spoils one window does
/// not move the run's figure.
constexpr std::size_t kOpenWindows = 10;
constexpr std::size_t kMinWindow = 100;
constexpr std::size_t kClosedSlices = 6;

/// Responses recomputed outside the server per timed phase: a seeded
/// sample of the open loop, and every kClosedStride-th closed-loop
/// response up to kClosedSample.
constexpr std::size_t kOpenSample = 24;
constexpr std::size_t kClosedSample = 8;
constexpr std::size_t kClosedStride = 8;

constexpr const char* kBackend = "resparc-64";
constexpr const char* kKey = "resparc-64/anneal";
constexpr const char* kTenant = "vision";

/// What the harness knows about one open-loop request.
struct Record {
  std::int64_t due_ns = 0;          ///< scheduled send time
  std::int64_t submit_begin_ns = 0;
  std::int64_t submit_end_ns = 0;   ///< 0 when admission refused it
  std::int64_t delivered_ns = 0;    ///< 0 until the callback ran
  std::uint64_t queue_ns = 0;
  std::uint64_t batch_ns = 0;
  std::uint64_t digest = 0;         ///< report_digest of the response
  std::uint64_t root_span = 0;
  std::uint32_t predicted = 0;
  std::uint32_t sequence = 0;
};

/// A delivered closed-loop response kept for the checks.
struct Delivered {
  std::uint32_t sequence = 0;
  std::uint32_t predicted = 0;
  std::uint64_t digest = 0;
};

/// One timed phase: its sessions and what came back.  Storage is sized
/// up front (the open loop's length is fixed), so the harness's memory
/// does not grow with server throughput.
struct PhaseLog {
  serve::SessionId open_session{}, closed_session{};
  std::vector<Record> open;                ///< by request index
  std::vector<std::uint32_t> open_index;   ///< request index by sequence
  std::uint32_t open_next = 0;             ///< next open-loop sequence
  std::size_t rejected = 0;
  std::size_t closed_submitted = 0;
  std::size_t closed_failed = 0;
  std::int64_t closed_start_ns = 0;  ///< set before the first closed submit
  /// Closed-loop completions per time slice of the generator's run, and
  /// the last completion stamp of each slice.
  std::array<std::atomic<std::uint64_t>, kClosedSlices> closed_done{};
  std::array<std::atomic<std::int64_t>, kClosedSlices> closed_last_ns{};
  std::mutex sample_mutex;
  std::vector<Delivered> closed_sample;
  serve::ServerStats stats_before, stats_after;
};

/// Sleeps until shortly before `due`, then yields until it: a plain
/// sleep overshoots by the timer slack, which would show up as
/// generator lag in every open-loop latency.
void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(200));
  while (Clock::now() < due) std::this_thread::yield();
}

class ServeCnnImage final : public Workload {
 public:
  explicit ServeCnnImage(const Options& options) : options_(options) {}

  void setup() override {
    const snn::BenchmarkSpec spec = snn::mnist_cnn();
    dataset_ = spec.dataset;
    topology_ = spec.topology;
    network_.emplace(prepare_network(spec));
    const data::SyntheticOptions pool{.count = kPool,
                                      .seed = options_.seed,
                                      .noise = 0.03,
                                      .jitter_pixels = 1.5};
    images_ = traced("data.synth_pool",
                     [&] { return data::make_synthetic(spec.dataset, pool); });

    // The paper mapper as the baseline and the anneal search that serves.
    paper_ = compile_verified(topology_, kBackend, "paper");
    search_ = compile_verified(topology_, kBackend, "anneal");
    std::string blob;
    round_trip_ok_ = round_trip(search_.program, kBackend, &blob);

    // A fresh server; the previous set-up's shuts down first.  Its
    // program cache lives under the output directory.
    server_.reset();
    serve::ServerConfig config{.replicas = 4, .dispatchers = 4};
    config.cache.directory = cache_dir();
    server_ = std::make_unique<serve::Server>(config);
    reference_ = load_resparc(kKey, topology_, search_.program, false);
    seed_cache(blob);
    serve::TenantSpec tenant;
    tenant.backend = kKey;
    tenant.topology = topology_;
    tenant.network = *network_;
    tenant.sim.timesteps = kTimesteps;
    server_->add_tenant(kTenant, std::move(tenant));
    const serve::ProgramCacheStats cache = server_->program_cache().stats();
    disk_hit_ = cache.disk_hits == 1 && cache.misses == 0;
    cmos_ = api::make_accelerator("cmos");
    cmos_->load(topology_);
  }

  void warmup() override {
    Tracer::instance().set_phase(Phase::kWarmup);
    const serve::SessionId session = server_->open_session(kTenant);
    std::deque<std::future<serve::Response>> inflight;
    for (std::size_t k = 0; k < kWarmupRequests; ++k) {
      inflight.push_back(
          server_->submit(session, make_request(pool_index(Loop::kWarmup, k))));
      if (inflight.size() >= kOutstanding) {
        inflight.front().get();
        inflight.pop_front();
      }
    }
    for (auto& f : inflight) f.get();
    server_->drain();
  }

  PhaseFigures timed(std::size_t index) override {
    Tracer::instance().set_phase(Phase::kTimed);
    phases_.push_back(std::make_unique<PhaseLog>());
    PhaseLog& log = *phases_.back();
    open_sessions(log);
    log.stats_before = server_->stats();

    run_open_loop(log);
    run_closed_loop(log);
    server_->drain();
    log.stats_after = server_->stats();

    // Open loop: latency from due time to delivery, per window.
    std::uint64_t failed = log.rejected + log.closed_failed;
    const std::size_t windows = std::clamp<std::size_t>(
        log.open.size() / kMinWindow, 1, kOpenWindows);
    std::vector<double> all_ms, p50_ms, p90_ms;
    for (std::size_t w = 0; w < windows; ++w) {
      std::vector<double> window_ms;
      for (std::size_t i = w * log.open.size() / windows;
           i < (w + 1) * log.open.size() / windows; ++i) {
        const Record& r = log.open[i];
        if (r.submit_end_ns == 0) continue;  // refused, counted above
        if (r.delivered_ns == 0) {
          ++failed;
          continue;
        }
        window_ms.push_back(static_cast<double>(r.delivered_ns - r.due_ns) *
                            1e-6);
      }
      if (window_ms.empty()) continue;
      p50_ms.push_back(quantile(window_ms, 0.50));
      p90_ms.push_back(quantile(window_ms, 0.90));
      all_ms.insert(all_ms.end(), window_ms.begin(), window_ms.end());
    }
    // Closed loop: completion rate per time slice while the generator
    // ran, each slice from the previous slice's last completion to its
    // own.
    std::vector<double> slice_rps;
    std::int64_t previous = log.closed_start_ns;
    for (std::size_t k = 0; k < kClosedSlices; ++k) {
      const std::uint64_t done = log.closed_done[k].load();
      const std::int64_t last = log.closed_last_ns[k].load();
      if (done == 0 || last <= previous) continue;
      slice_rps.push_back(static_cast<double>(done) /
                          (static_cast<double>(last - previous) * 1e-9));
      previous = last;
    }
    if (all_ms.empty() || slice_rps.empty())
      throw BenchError("serve phase produced no timed responses");

    PhaseFigures f;
    f.latency_p50_ms = median(p50_ms);
    tails_ = {median(p90_ms), quantile(all_ms, 0.99)};
    f.throughput_rps = median(slice_rps);
    f.attempted = log.open.size() + log.closed_submitted;
    f.failed = failed;
    std::ostringstream summary;
    summary << "open loop " << log.open.size() << " requests at "
            << kOpenRateRps << " rps in " << windows
            << " windows: p50 " << f.latency_p50_ms << " ms, p90 "
            << tails_.p90_ms << " ms (window medians); whole phase p50 "
            << quantile(all_ms, 0.50) << " ms, p90 " << quantile(all_ms, 0.90)
            << " ms, p99 " << quantile(all_ms, 0.99) << " ms, p99.9 "
            << quantile(all_ms, 0.999) << " ms; closed loop "
            << log.closed_submitted << " requests, " << kOutstanding
            << " outstanding: " << f.throughput_rps
            << " rps (median of " << kClosedSlices << " slices)";
    f.summary = summary.str();
    if (index == 1) record_request_spans(log);
    return f;
  }

  void check(Result& result) override {
    Tracer::instance().set_phase(Phase::kCheck);
    report_findings({&paper_, &search_}, result);
    if (!round_trip_ok_) result.fail("program blob does not round-trip");
    if (!disk_hit_) result.fail("tenant binding missed the program cache blob");

    snn::SimConfig config;
    config.timesteps = kTimesteps;
    snn::Simulator simulator(*network_, config);
    activity_ = {};
    overhead_.clear();
    std::size_t mismatched = 0;
    // Outside the server: the session's seed stream -> simulate ->
    // replay on an identically loaded chip.  Returns the host time of
    // simulate + replay.
    auto recompute = [&](serve::SessionId session, std::size_t pool,
                         const Delivered& d, bool keep_activity) {
      Rng rng(server_->sessions().request_seed(session, d.sequence));
      const auto t0 = Clock::now();
      const snn::SimResult sim = traced("snn.simulate", [&] {
        return simulator.run(images_.images[pool], rng);
      });
      const api::ExecutionReport report =
          traced("core.replay", [&] { return reference_->execute(sim.trace); });
      const double host_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      traced("cmos.replay", [&] { return cmos_->execute(sim.trace); });
      if (sim.predicted_class != d.predicted ||
          report_digest(report) != d.digest)
        ++mismatched;
      if (keep_activity) activity_.add(sim.trace);
      return host_ms;
    };
    for (std::size_t p = 0; p < phases_.size(); ++p) {
      const PhaseLog& log = *phases_[p];
      for (const std::size_t i : open_sample(log)) {
        const Record& r = log.open[i];
        if (r.delivered_ns == 0) continue;  // already counted as failed
        const double host_ms =
            recompute(log.open_session, pool_index(Loop::kOpen, r.sequence),
                      {r.sequence, r.predicted, r.digest}, p == 0);
        if (p + 1 == phases_.size())
          overhead_.push_back(
              static_cast<double>(r.delivered_ns - r.due_ns) * 1e-6 - host_ms);
      }
      for (const Delivered& d : log.closed_sample)
        recompute(log.closed_session, pool_index(Loop::kClosed, d.sequence), d,
                  false);
      if (log.closed_sample.size() < kClosedSample)
        result.fail("closed loop delivered too few responses to check");
    }
    if (mismatched > 0)
      result.fail(std::to_string(mismatched) +
                      " served image responses differ from the recomputation",
                  mismatched);
  }

  void layer_values(const std::vector<Span>& spans,
                    LayerValues& values) override {
    // Serve stamps of the traced phase (the last one run).
    const PhaseLog& log = *phases_.back();
    std::vector<double> queue_ms, batch_ms, lag_ms;
    for (const Record& r : log.open) {
      if (r.delivered_ns == 0) continue;
      queue_ms.push_back(static_cast<double>(r.queue_ns) * 1e-6);
      batch_ms.push_back(static_cast<double>(r.batch_ns) * 1e-6);
      lag_ms.push_back(static_cast<double>(r.submit_begin_ns - r.due_ns) *
                       1e-6);
    }
    std::vector<double> submit_us;
    for (const Span& s : spans)
      if (s.name == "serve.submit" && s.phase == Phase::kTimed)
        submit_us.push_back(s.ms() * 1e3);
    values["serve.submit_p99_us"] = quantile(submit_us, 0.99);
    values["serve.queue_p50_ms"] = quantile(queue_ms, 0.50);
    values["serve.queue_p99_ms"] = quantile(queue_ms, 0.99);
    values["serve.batch_p50_ms"] = quantile(batch_ms, 0.50);
    values["serve.batch_p99_ms"] = quantile(batch_ms, 0.99);
    values["harness.gen_lag_p99_ms"] = quantile(lag_ms, 0.99);
    const double batches = static_cast<double>(log.stats_after.batches -
                                               log.stats_before.batches);
    const double completed = static_cast<double>(log.stats_after.completed -
                                                 log.stats_before.completed);
    values["serve.batch_size_mean"] = batches > 0 ? completed / batches : 0.0;
    values["serve.rejected"] = static_cast<double>(
        log.stats_after.rejected - log.stats_before.rejected);
    values["serve.overhead_ms"] = median(overhead_);
    values["serve.latency_p90_ms"] = tails_.p90_ms;
    values["serve.latency_p99_ms"] = tails_.p99_ms;

    snn::SimConfig config;
    config.timesteps = kTimesteps;
    model_values(*network_, dataset_, config, *reference_, *cmos_,
                 search_.program, values);
    activity_values(activity_, values);
  }

 private:
  serve::Request make_request(std::size_t pool) const {
    return {.image = images_.images[pool]};
  }

  /// Deterministic pool entry of the k-th request of a loop.
  std::size_t pool_index(Loop loop, std::size_t k) const {
    const std::uint64_t stream =
        stream_seed(options_.seed, static_cast<std::uint64_t>(loop));
    return static_cast<std::size_t>(stream_seed(stream, k) % kPool);
  }

  std::string cache_dir() const { return options_.out_dir + "/cache"; }

  /// Files the program blob under the server's cache key, so binding
  /// the tenant takes the ProgramCache disk-hit path.
  void seed_cache(const std::string& blob) {
    const auto& config =
        dynamic_cast<const api::ResparcBackend&>(*reference_).config();
    const std::string path = server_->program_cache().blob_path(
        compile::program_cache_key(config, topology_, "anneal"));
    std::filesystem::create_directories(cache_dir());
    std::ofstream os(path, std::ios::binary);
    os << blob;
    if (!os) throw BenchError("cannot write program blob " + path);
  }

  /// Length of the closed loop, ns.
  std::int64_t closed_ns() const {
    return static_cast<std::int64_t>(options_.seconds * (1.0 - kOpenShare) *
                                     1e9);
  }

  void open_sessions(PhaseLog& log) {
    const auto n = std::max<std::size_t>(
        1, static_cast<std::size_t>(kOpenRateRps * options_.seconds *
                                    kOpenShare));
    log.open.assign(n, Record{});
    log.open_index.assign(n, 0);

    serve::SessionOptions open;
    open.on_response = [&log](const serve::Response& r) {
      const std::int64_t delivered = now_ns();
      Record& rec = log.open[log.open_index[r.sequence]];
      rec.queue_ns = r.queue_ns;
      rec.batch_ns = r.batch_ns;
      rec.predicted = static_cast<std::uint32_t>(r.predicted_class);
      rec.digest = report_digest(r.report);
      rec.delivered_ns = delivered;
    };
    log.open_session = server_->open_session(kTenant, std::move(open));

    serve::SessionOptions closed;
    const std::int64_t closed_ns = this->closed_ns();
    closed.on_response = [&log, closed_ns](const serve::Response& r) {
      const std::int64_t delivered = now_ns();
      if (r.sequence % kClosedStride == 0 &&
          r.sequence < kClosedSample * kClosedStride) {
        std::lock_guard<std::mutex> lock(log.sample_mutex);
        log.closed_sample.push_back(
            {static_cast<std::uint32_t>(r.sequence),
             static_cast<std::uint32_t>(r.predicted_class),
             report_digest(r.report)});
      }
      // Completions after the generator stopped (the drain) do not
      // count: the window was no longer full.
      const std::int64_t since = delivered - log.closed_start_ns;
      if (since >= closed_ns) return;
      const auto k = static_cast<std::size_t>(
          since * static_cast<std::int64_t>(kClosedSlices) / closed_ns);
      log.closed_done[k].fetch_add(1);
      std::int64_t last = log.closed_last_ns[k].load();
      while (delivered > last &&
             !log.closed_last_ns[k].compare_exchange_weak(last, delivered)) {
      }
    };
    log.closed_session = server_->open_session(kTenant, std::move(closed));
  }

  void run_open_loop(PhaseLog& log) {
    // The same arrival schedule in every phase of a run.
    std::mt19937_64 rng(stream_seed(options_.seed, 0xA441ull));
    std::exponential_distribution<double> gap(kOpenRateRps);
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    double offset_s = 0.0;
    Tracer& tracer = Tracer::instance();
    for (std::size_t i = 0; i < log.open.size(); ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(offset_s));
      offset_s += gap(rng);
      const std::uint32_t k = log.open_next;
      Record& rec = log.open[i];
      rec.sequence = k;
      rec.root_span = tracer.enabled() ? tracer.next_id() : 0;
      log.open_index[k] = static_cast<std::uint32_t>(i);
      serve::Request request = make_request(pool_index(Loop::kOpen, k));
      wait_until(due);
      rec.due_ns = to_ns(due);
      rec.submit_begin_ns = now_ns();
      try {
        ScopedSpan span("serve.submit", i + 1, rec.root_span);
        server_->submit(log.open_session, std::move(request));
      } catch (const serve::ServeError&) {
        ++log.rejected;
        continue;
      }
      rec.submit_end_ns = now_ns();
      ++log.open_next;
    }
    server_->drain();
  }

  void run_closed_loop(PhaseLog& log) {
    const auto start = Clock::now();
    const auto end = start + std::chrono::nanoseconds(closed_ns());
    log.closed_start_ns = to_ns(start);
    std::size_t next = 0;
    std::deque<std::future<serve::Response>> inflight;
    auto wait_front = [&] {
      try {
        inflight.front().get();
      } catch (const std::exception&) {
        ++log.closed_failed;
      }
      inflight.pop_front();
    };
    while (Clock::now() < end) {
      while (inflight.size() < kOutstanding) {
        ++log.closed_submitted;
        serve::Request request = make_request(pool_index(Loop::kClosed, next));
        try {
          ScopedSpan span("serve.submit");
          inflight.push_back(
              server_->submit(log.closed_session, std::move(request)));
          ++next;
        } catch (const serve::ServeError&) {
          ++log.rejected;
        }
      }
      wait_front();
    }
    while (!inflight.empty()) wait_front();
  }

  /// Request spans rebuilt from the stamps: lag, submit (recorded
  /// live), queue, batch, deliver under one serve.request root.
  void record_request_spans(const PhaseLog& log) {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return;
    const std::uint32_t tid = Tracer::thread_id();
    auto add = [&](const char* name, std::uint64_t id, std::uint64_t parent,
                   std::uint64_t request, std::int64_t begin,
                   std::int64_t end) {
      tracer.record({name, id, parent, request, begin, std::max(begin, end),
                     tid, Phase::kTimed});
    };
    for (std::size_t i = 0; i < log.open.size(); ++i) {
      const Record& r = log.open[i];
      if (r.delivered_ns == 0 || r.root_span == 0) continue;
      const std::uint64_t req = i + 1;
      add("serve.request", r.root_span, 0, req, r.due_ns, r.delivered_ns);
      add("harness.gen_lag", tracer.next_id(), r.root_span, req, r.due_ns,
          r.submit_begin_ns);
      const std::int64_t dispatch =
          r.submit_end_ns + static_cast<std::int64_t>(r.queue_ns);
      const std::int64_t done =
          dispatch + static_cast<std::int64_t>(r.batch_ns);
      add("serve.queue", tracer.next_id(), r.root_span, req, r.submit_end_ns,
          dispatch);
      add("serve.batch", tracer.next_id(), r.root_span, req, dispatch, done);
      add("serve.deliver", tracer.next_id(), r.root_span, req, done,
          r.delivered_ns);
    }
  }

  /// Seeded sample of the open loop's request indices.
  std::vector<std::size_t> open_sample(const PhaseLog& log) const {
    std::mt19937_64 rng(stream_seed(options_.seed, 0x5A3Bull));
    std::vector<std::size_t> sample(log.open.size());
    for (std::size_t i = 0; i < sample.size(); ++i) sample[i] = i;
    std::shuffle(sample.begin(), sample.end(), rng);
    sample.resize(std::min(sample.size(), kOpenSample));
    std::sort(sample.begin(), sample.end());
    return sample;
  }

  Options options_;
  snn::DatasetKind dataset_ = snn::DatasetKind::kMnistLike;
  snn::Topology topology_{"unset", {1, 1, 1}, {snn::LayerSpec::dense(1)}};
  data::Dataset images_;
  std::optional<snn::Network> network_;
  VerifiedProgram paper_, search_;
  /// Declared before the server, so the server (whose callbacks write
  /// into these logs) shuts down first.
  std::vector<std::unique_ptr<PhaseLog>> phases_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<api::Accelerator> reference_;
  std::unique_ptr<api::Accelerator> cmos_;
  bool round_trip_ok_ = false;
  bool disk_hit_ = false;
  /// Open-loop tail of the last phase: p90 (window median) and p99.  On
  /// a shared host these follow the host's scheduling more than the
  /// code, so they are per-layer figures, not gated end-to-end ones.
  struct Tails {
    double p90_ms = 0.0;
    double p99_ms = 0.0;
  } tails_;
  snn::ActivityTrace activity_;
  std::vector<double> overhead_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_cnn_image(const Options& options) {
  return std::make_unique<ServeCnnImage>(options);
}

}  // namespace perfbench
