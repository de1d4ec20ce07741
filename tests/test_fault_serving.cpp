// Degraded-replica serving (docs/reliability.md): tenants binding
// per-replica fault seeds get canary-checked replicas — a replica whose
// first-checkout canary replay diverges from the pristine signature is
// retired, batches retry onto healthy replicas with bounded backoff, and
// the RS-REPLICA-DEGRADED / RS-RETRY-EXHAUSTED codes surface when
// nothing healthy remains.  Results served through a degraded fleet must
// stay bit-identical, in order, to a fault-free server.
#include <gtest/gtest.h>

#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "serve/canary.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "snn/benchmarks.hpp"

namespace resparc::serve {
namespace {

/// Shared traced workload (compiles are slow; build once per suite).
class ServeDegradedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    api::PipelineOptions opt;
    opt.images = 6;
    opt.timesteps = 8;
    opt.seed = 11;
    opt.threads = 1;
    workload_ = new api::Workload(
        api::Pipeline(opt)
            .dataset(snn::DatasetKind::kMnistLike)
            .topology(snn::small_mlp_topology(snn::DatasetKind::kMnistLike))
            .run());
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  /// A trace-replay tenant whose backend options carry real fault rates
  /// — dormant (enabled=false) until a replica binds a non-zero chip
  /// seed through `seeds`.
  static TenantSpec faulty_tenant(std::vector<std::uint64_t> seeds) {
    TenantSpec spec;
    spec.backend = "resparc-64";
    spec.topology = workload_->topology();
    spec.options.resparc.faults.stuck_off_rate = 0.02;
    spec.options.resparc.faults.stuck_on_rate = 0.01;
    spec.options.resparc.faults.programming_sigma = 0.1;
    spec.replica_chip_seeds = std::move(seeds);
    return spec;
  }

  static const snn::SpikeTrace& trace(std::size_t i) {
    return workload_->traces[i % workload_->traces.size()];
  }

  static api::Workload* workload_;
};

api::Workload* ServeDegradedTest::workload_ = nullptr;

/// The ServeError code thrown by `fn` ("" when none).
template <typename Fn>
std::string code_of(Fn&& fn) {
  try {
    fn();
  } catch (const ServeError& e) {
    return e.code();
  } catch (...) {
  }
  return "";
}

// A degraded replica is detected at first checkout, retired, and every
// request still completes — bit-identically to a fault-free server.
TEST_F(ServeDegradedTest, DegradedReplicaRetiresAndServingContinues) {
  constexpr std::size_t kRequests = 10;

  // Reference: the same stream through a server with no fault seeds.
  std::vector<Response> reference;
  {
    Server server({.replicas = 2, .dispatchers = 2});
    server.add_tenant("t", faulty_tenant({}));
    const SessionId s = server.open_session("t");
    std::vector<std::future<Response>> futures;
    for (std::size_t i = 0; i < kRequests; ++i)
      futures.push_back(server.submit(s, {.trace = trace(i)}));
    for (auto& f : futures) reference.push_back(f.get());
    EXPECT_EQ(server.stats().canary_checks, 0u);  // canary stays unarmed
    EXPECT_EQ(server.stats().degraded_replicas, 0u);
  }

  // Replica 1 is a faulty chip instance; replicas check out back-first,
  // so the very first batch trips over it and must retry onto the
  // pristine replica 0.
  Server server({.replicas = 2, .dispatchers = 2});
  server.add_tenant("t", faulty_tenant({0, 0xBADC0FFEEull}));

  std::mutex order_mutex;
  std::vector<std::uint64_t> delivered;
  SessionOptions opts;
  opts.on_response = [&](const Response& r) {
    std::lock_guard<std::mutex> lock(order_mutex);
    delivered.push_back(r.sequence);
  };
  const SessionId s = server.open_session("t", std::move(opts));
  std::vector<std::future<Response>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(s, {.trace = trace(i)}));
  server.drain();

  for (std::size_t i = 0; i < kRequests; ++i) {
    const Response r = futures[i].get();
    EXPECT_EQ(r.sequence, i);
    // Bit-identical to the fault-free run: degraded replicas never serve.
    EXPECT_EQ(r.report.energy_pj, reference[i].report.energy_pj) << i;
    EXPECT_EQ(r.report.latency_ns, reference[i].report.latency_ns) << i;
  }
  {
    std::lock_guard<std::mutex> lock(order_mutex);
    ASSERT_EQ(delivered.size(), kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) EXPECT_EQ(delivered[i], i);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.degraded_replicas, 1u);
  EXPECT_GE(stats.retries, 1u);
  // Both replicas were probed exactly once.
  EXPECT_EQ(stats.canary_checks, 2u);
  EXPECT_EQ(stats.retry_exhausted, 0u);
}

// When every replica is a bad chip the tenant degrades to fail-fast:
// in-flight and queued work surfaces RS-REPLICA-DEGRADED, new submits
// are refused with the same code, and drain()/shutdown() never hang.
TEST_F(ServeDegradedTest, AllReplicasDegradedFailsRequestsWithCode) {
  Server server({.replicas = 2, .dispatchers = 1, .batch_max = 1});
  server.add_tenant("t", faulty_tenant({0xBAD1, 0xBAD2}));
  const SessionId s = server.open_session("t");

  // The dispatcher may retire both replicas while we are still
  // submitting: every request either fails at admission or through its
  // future, always with RS-REPLICA-DEGRADED.
  std::vector<std::future<Response>> futures;
  std::size_t refused_at_submit = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    try {
      futures.push_back(server.submit(s, {.trace = trace(i)}));
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), kErrReplicaDegraded);
      ++refused_at_submit;
    }
  }
  server.drain();

  EXPECT_LT(refused_at_submit, 6u) << "no request ever reached a replica";
  for (auto& f : futures) {
    EXPECT_EQ(code_of([&] { f.get(); }), kErrReplicaDegraded);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded_replicas, 2u);
  EXPECT_EQ(stats.canary_checks, 2u);
  // Failures are not published responses.
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, futures.size());

  // The tenant now rejects at admission: no healthy silicon remains.
  EXPECT_EQ(code_of([&] { server.submit(s, {.trace = trace(0)}); }),
            kErrReplicaDegraded);
  server.shutdown();
}

// max_retries bounds how many degraded replicas one batch may burn
// through; past the budget it is abandoned with RS-RETRY-EXHAUSTED even
// though healthy replicas remain for later batches.
TEST_F(ServeDegradedTest, RetryBudgetExhaustionSurfacesByCode) {
  Server server({.replicas = 2,
                 .dispatchers = 1,
                 .batch_max = 1,
                 .max_retries = 0});
  server.add_tenant("t", faulty_tenant({0, 0xBAD}));
  const SessionId s = server.open_session("t");

  // First batch checks out the faulty replica 1, has no retry budget,
  // and must be abandoned.
  auto doomed = server.submit(s, {.trace = trace(0)});
  server.drain();
  EXPECT_EQ(code_of([&] { doomed.get(); }), kErrRetryExhausted);
  EXPECT_GE(server.stats().retry_exhausted, 1u);

  // The pristine replica 0 still serves follow-up requests.
  auto ok = server.submit(s, {.trace = trace(1)});
  EXPECT_NO_THROW(ok.get());
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded_replicas, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

// An armed canary over pristine replicas is a no-op: every probe passes
// and the results match a server that never armed it.
TEST_F(ServeDegradedTest, CanaryOnPristineReplicasChangesNothing) {
  constexpr std::size_t kRequests = 6;
  auto run = [&](std::vector<std::uint64_t> seeds) {
    Server server({.replicas = 2, .dispatchers = 2});
    server.add_tenant("t", faulty_tenant(std::move(seeds)));
    const SessionId s = server.open_session("t");
    std::vector<std::future<Response>> futures;
    for (std::size_t i = 0; i < kRequests; ++i)
      futures.push_back(server.submit(s, {.trace = trace(i)}));
    std::vector<Response> responses;
    for (auto& f : futures) responses.push_back(f.get());
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.degraded_replicas, 0u);
    EXPECT_EQ(stats.retry_exhausted, 0u);
    return responses;
  };

  const auto plain = run({});
  const auto canaried = run({0, 0});
  ASSERT_EQ(plain.size(), canaried.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].report.energy_pj, canaried[i].report.energy_pj) << i;
    EXPECT_EQ(plain[i].report.latency_ns, canaried[i].report.latency_ns) << i;
  }
}

// The canary trace itself is a pure function of (topology, seed): the
// probe is reproducible across servers and runs.
TEST_F(ServeDegradedTest, CanaryTraceIsDeterministic) {
  const snn::SpikeTrace a =
      make_canary_trace(workload_->topology(), 4, 0x5EEDull);
  const snn::SpikeTrace b =
      make_canary_trace(workload_->topology(), 4, 0x5EEDull);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  std::size_t set_bits = 0;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    ASSERT_EQ(a.layers[l].size(), b.layers[l].size());
    for (std::size_t t = 0; t < a.layers[l].size(); ++t) {
      EXPECT_EQ(a.layers[l][t].count(), b.layers[l][t].count());
      set_bits += a.layers[l][t].count();
    }
  }
  EXPECT_GT(set_bits, 0u) << "an all-silent canary cannot detect anything";
  // A different seed probes with a different pattern.
  const snn::SpikeTrace c =
      make_canary_trace(workload_->topology(), 4, 0x5EEEull);
  std::size_t other_bits = 0;
  for (const auto& layer : c.layers)
    for (const auto& step : layer) other_bits += step.count();
  EXPECT_NE(set_bits, other_bits);
}

}  // namespace
}  // namespace resparc::serve
