// Multi-tenant serving throughput and tail latency (docs/serving.md).
//
// Replays the MNIST MLP traces through serve::Server at 1, 2 and 4
// concurrent tenants and reports aggregate throughput plus the
// p50/p95/p99/max of the end-to-end latency histogram.  Each tenant is
// driven by one interactive closed-loop client with a shallow pipeline
// (2 outstanding requests) — the latency-bound regime the batch window
// exists for: a lone client leaves the server idle while its batch
// window runs out, so the single-tenant row is bounded by
// window + execute.  Concurrent tenants' windows overlap (and their
// batches interleave over the dispatchers/replicas), so aggregate
// throughput scales with the tenant count — the acceptance property
// tracked by tools/validate_trajectory.py is that the >= 4-tenant
// aggregate clears a healthy multiple of the single-tenant baseline.
//
// Results go to stdout and bench/trajectory/bench_serving.json.
//
// Environment knobs:
//   RESPARC_BENCH_IMAGES    distinct traces in the workload (default 8)
//   RESPARC_BENCH_TIMESTEPS presentation length            (default 16)
//   RESPARC_BENCH_REPS      timing repetitions, best kept  (default 3)
//   RESPARC_SERVE_REQUESTS  requests per tenant            (default 64)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.hpp"
#include "bench_util.hpp"
#include "serve/server.hpp"
#include "snn/benchmarks.hpp"

namespace {

using namespace resparc;
using Clock = std::chrono::steady_clock;

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

struct Row {
  std::size_t tenants = 0;
  std::size_t requests = 0;        ///< total across all tenants
  double throughput_rps = 0.0;     ///< responses per second, aggregate
  serve::LatencySnapshot total;    ///< end-to-end latency percentiles
  serve::LatencySnapshot queue;    ///< time spent waiting for a batch
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;
};

/// One timed serving run: `tenants` closed-loop producers, each driving
/// its own tenant+session with `per_tenant` trace requests.  A fresh
/// server per run keeps the latency histograms scoped to the run.
Row run_once(const api::Workload& workload, std::size_t tenants,
             std::size_t per_tenant) {
  serve::ServerConfig config;
  config.replicas = 1;
  config.dispatchers = std::max<std::size_t>(tenants, 2);
  config.queue_capacity = 64;
  config.batch_max = 8;
  config.batch_window = std::chrono::microseconds(200);
  serve::Server server(config);

  serve::TenantSpec spec;
  spec.backend = "resparc-64";
  spec.topology = workload.topology();
  std::vector<serve::SessionId> sessions;
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::string name = "tenant-" + std::to_string(t);
    server.add_tenant(name, spec);
    sessions.push_back(server.open_session(name));
  }

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < tenants; ++t) {
    producers.emplace_back([&, t] {
      // Interactive client: at most 2 outstanding requests.  The shallow
      // pipeline keeps the tenant's queue below batch_max, so dispatch is
      // window-driven — the regime where multi-tenant aggregation pays.
      std::deque<std::future<serve::Response>> inflight;
      for (std::size_t i = 0; i < per_tenant; ++i) {
        serve::Request request;
        request.trace = workload.traces[i % workload.traces.size()];
        inflight.push_back(server.submit(sessions[t], std::move(request)));
        if (inflight.size() >= 2) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
      }
    });
  }
  for (auto& p : producers) p.join();
  server.drain();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  Row row;
  row.tenants = tenants;
  row.requests = tenants * per_tenant;
  row.throughput_rps = static_cast<double>(row.requests) / seconds;
  row.total = server.latency().snapshot(serve::LatencyRecorder::Stage::kTotal);
  row.queue = server.latency().snapshot(serve::LatencyRecorder::Stage::kQueue);
  const serve::ServerStats stats = server.stats();
  row.batches = stats.batches;
  row.max_batch = stats.max_batch;
  return row;
}

/// Best-throughput rep (latency percentiles come from the same rep, so
/// every row is one internally-consistent run).
Row run_row(const api::Workload& workload, std::size_t tenants,
            std::size_t per_tenant, std::size_t reps) {
  Row best = run_once(workload, tenants, per_tenant);
  for (std::size_t r = 1; r < reps; ++r) {
    Row row = run_once(workload, tenants, per_tenant);
    if (row.throughput_rps > best.throughput_rps) best = row;
  }
  return best;
}

}  // namespace

int main() {
  const std::size_t images = std::max<std::size_t>(bench::bench_images(), 8);
  const std::size_t timesteps =
      std::min<std::size_t>(bench::bench_timesteps(), 16);
  const std::size_t reps = env_size("RESPARC_BENCH_REPS", 3);
  const std::size_t per_tenant = env_size("RESPARC_SERVE_REQUESTS", 64);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("== multi-tenant serving throughput ==\n");
  std::printf("(mnist-mlp traces, %zu images x %zu timesteps, %zu requests "
              "per tenant, %zu reps, %u hardware threads)\n\n",
              images, timesteps, per_tenant, reps, hw == 0 ? 1 : hw);

  api::PipelineOptions opt;
  opt.images = images;
  opt.timesteps = timesteps;
  opt.threads = 0;
  const api::Workload workload =
      api::Pipeline(opt).benchmark(snn::mnist_mlp()).run();

  std::vector<Row> rows;
  for (const std::size_t tenants : {1u, 2u, 4u}) {
    const Row row = run_row(workload, tenants, per_tenant, reps);
    rows.push_back(row);
    std::printf("tenants %zu: %8.1f req/s | total p50 %7.1f us  p95 %7.1f us"
                "  p99 %7.1f us  max %7.1f us | %llu batches (max %llu)\n",
                row.tenants, row.throughput_rps,
                static_cast<double>(row.total.p50_ns) * 1e-3,
                static_cast<double>(row.total.p95_ns) * 1e-3,
                static_cast<double>(row.total.p99_ns) * 1e-3,
                static_cast<double>(row.total.max_ns) * 1e-3,
                static_cast<unsigned long long>(row.batches),
                static_cast<unsigned long long>(row.max_batch));
  }
  const double scaling =
      rows.back().throughput_rps / std::max(rows.front().throughput_rps, 1e-9);
  std::printf("\naggregate scaling %zu tenants vs 1: %.2fx\n",
              rows.back().tenants, scaling);

  std::ostringstream config;
  config << "{\"benchmark\": \"mnist-mlp\", \"images\": " << images
         << ", \"timesteps\": " << timesteps
         << ", \"requests_per_tenant\": " << per_tenant
         << ", \"reps\": " << reps << ", \"replicas\": 1"
         << ", \"client_pipeline\": 2"
         << ", \"batch_max\": 8, \"batch_window_us\": 200"
         << ", \"hardware_threads\": " << (hw == 0 ? 1 : hw) << "}";
  std::ostringstream metrics;
  metrics << "{\"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    metrics << "    {\"tenants\": " << r.tenants
            << ", \"requests\": " << r.requests
            << ", \"throughput_rps\": " << r.throughput_rps
            << ", \"p50_ns\": " << r.total.p50_ns
            << ", \"p95_ns\": " << r.total.p95_ns
            << ", \"p99_ns\": " << r.total.p99_ns
            << ", \"max_ns\": " << r.total.max_ns
            << ", \"mean_ns\": " << r.total.mean_ns
            << ", \"queue_p99_ns\": " << r.queue.p99_ns
            << ", \"batches\": " << r.batches
            << ", \"max_batch\": " << r.max_batch << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  metrics << "  ]}";

  bench::write_trajectory("bench_serving", config.str(), metrics.str());
  return 0;
}
