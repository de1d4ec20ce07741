// Persistent ThreadPool semantics (common/thread_pool.hpp): exactly-once
// execution, worker ids, job reuse, nested-call degradation, the
// parallel_for wrapper, and — the satellite this PR fixes — prompt
// cooperative cancellation after a worker throws (the legacy spawn-per-
// call pool let surviving workers drain the whole counter).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "api/pipeline.hpp"
#include "common/thread_pool.hpp"
#include "snn/benchmarks.hpp"
#include "snn/network.hpp"
#include "snn/simulator.hpp"

namespace resparc {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (const std::size_t count : {1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h = 0;
    pool.run_indexed(count, 0, [&](std::size_t i, std::size_t) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(hits[i], 1) << "index " << i << " of " << count;
  }
}

TEST(ThreadPool, WorkerIdsAreStableAndInRange) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.width(), 4u);
  std::vector<std::atomic<int>> by_worker(pool.width());
  for (auto& c : by_worker) c = 0;
  pool.run_indexed(512, 0, [&](std::size_t, std::size_t worker) {
    ASSERT_LT(worker, pool.width());
    ++by_worker[worker];
  });
  int total = 0;
  for (auto& c : by_worker) total += c;
  EXPECT_EQ(total, 512);
}

TEST(ThreadPool, MaxWorkersCapsParticipation) {
  ThreadPool pool(8);
  std::atomic<int> max_seen{0};
  pool.run_indexed(256, 2, [&](std::size_t, std::size_t worker) {
    int seen = static_cast<int>(worker);
    int cur = max_seen.load();
    while (seen > cur && !max_seen.compare_exchange_weak(cur, seen)) {
    }
  });
  // Worker ids are dense from 0: a cap of 2 admits ids {0, 1} only.
  EXPECT_LT(max_seen.load(), 2);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int job = 0; job < 50; ++job)
    pool.run_indexed(100, 0,
                     [&](std::size_t i, std::size_t) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 50L * (99L * 100L / 2L));
}

TEST(ThreadPool, NestedCallRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_items{0};
  pool.run_indexed(8, 0, [&](std::size_t, std::size_t) {
    pool.run_indexed(4, 0,
                     [&](std::size_t, std::size_t) { ++inner_items; });
  });
  EXPECT_EQ(inner_items.load(), 32);
}

TEST(ThreadPool, ExceptionPropagatesAndCancelsPromptly) {
  ThreadPool pool(4);
  // A huge job whose very first item throws: with cooperative
  // cancellation the surviving workers must stop claiming almost
  // immediately instead of draining the remaining ~10^6 items.
  const std::size_t count = 1u << 20;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      pool.run_indexed(count, 0,
                       [&](std::size_t i, std::size_t) {
                         if (i == 0) throw std::runtime_error("boom");
                         ++executed;
                       }),
      std::runtime_error);
  // Generous bound: anything close to `count` means cancellation failed.
  // (One chunk per worker may complete before the flag is seen.)
  EXPECT_LT(executed.load(), count / 4);
}

TEST(ThreadPool, ParallelForMatchesSerialAndRethrows) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    std::vector<int> out(1000, 0);
    parallel_for(out.size(), threads,
                 [&](std::size_t i) { out[i] = static_cast<int>(i % 7); });
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], static_cast<int>(i % 7));
  }
  EXPECT_THROW(parallel_for(64, 4,
                            [](std::size_t i) {
                              if (i == 13) throw std::runtime_error("x");
                            }),
               std::runtime_error);
}

/// Layer steps of `trace` that take the engine's stamped and full-drive
/// branches (snn/sparse_engine.hpp: full drive once events x fan-out
/// cover the population); steps without input events count as neither.
std::pair<std::size_t, std::size_t> step_regimes(const snn::Topology& topo,
                                                 const snn::SpikeTrace& trace) {
  std::size_t stamped = 0;
  std::size_t full = 0;
  for (std::size_t l = 0; l < topo.layer_count(); ++l) {
    const snn::LayerInfo& li = topo.layers()[l];
    const std::size_t fan_out =
        li.spec.kind == snn::LayerKind::kDense ? li.neurons
        : li.spec.kind == snn::LayerKind::kConv
            ? li.spec.kernel * li.spec.kernel * li.out_shape.c
            : 1;
    for (const snn::SpikeVector& in : trace.layers[l]) {
      const std::size_t events = in.count();
      if (events == 0) continue;
      ++(events * fan_out >= li.neurons ? full : stamped);
    }
  }
  return {stamped, full};
}

/// Runs one small-CNN presentation (uniform threshold `vth`) at encoder
/// `max_rate` serially and with every layer partitioned over a pool; the
/// traces must match bit-for-bit.  Stores the pooled run's step regimes
/// in `regimes` (an out-parameter so ASSERT_* can stop the check).
void expect_pooled_matches_serial(
    double max_rate, double vth,
    std::pair<std::size_t, std::size_t>& regimes) {
  const snn::Topology topo =
      snn::small_cnn_topology(snn::DatasetKind::kMnistLike);
  snn::Network net(topo);
  Rng wrng(31);
  net.init_random(wrng, 1.0f);
  net.set_uniform_threshold(vth);
  std::vector<float> img(topo.input_shape().size());
  for (auto& p : img) p = static_cast<float>(wrng.uniform(0.0, 1.0));

  snn::SimConfig cfg;
  cfg.timesteps = 8;
  cfg.encoder.max_rate = max_rate;
  snn::Simulator serial(net, cfg);
  Rng r1(32);
  const snn::SimResult want = serial.run(img, r1);

  ThreadPool pool(4);
  snn::Simulator pooled(net, cfg);
  pooled.set_pool(&pool, 0, /*min_outputs=*/1);  // partition every layer
  Rng r2(32);
  const snn::SimResult got = pooled.run(img, r2);

  EXPECT_EQ(got.output_spike_counts, want.output_spike_counts);
  EXPECT_EQ(got.total_spikes, want.total_spikes);
  ASSERT_EQ(got.trace.layers.size(), want.trace.layers.size());
  for (std::size_t l = 0; l < want.trace.layers.size(); ++l) {
    for (std::size_t t = 0; t < want.trace.layers[l].size(); ++t) {
      const auto a = got.trace.layers[l][t].words();
      const auto b = want.trace.layers[l][t].words();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "max_rate " << max_rate << " layer " << l << " step " << t;
    }
  }
  regimes = step_regimes(topo, got.trace);
}

TEST(ThreadPool, WithinTracePartitioningIsBitForBit) {
  // A simulator spreading its full-drive scatter over pool partitions
  // must produce the exact trace of the serial run (the partitioned
  // scatter is element-order preserving; docs/performance.md).
  std::pair<std::size_t, std::size_t> regimes;
  expect_pooled_matches_serial(1.0, 1.2, regimes);
  EXPECT_GT(regimes.second, 0u) << "no full-drive step ran";
}

TEST(ThreadPool, WithinTracePartitioningIsBitForBitOnDimInput) {
  // Dim input (~99% sparse): quiet conv/pool layers take stamped steps
  // while any event into a dense layer still saturates it, so both
  // branches run under set_pool in one presentation and must match the
  // serial run.  The lower threshold lets the dim activity reach the
  // dense layers at all.
  std::pair<std::size_t, std::size_t> regimes;
  expect_pooled_matches_serial(0.05, 0.5, regimes);
  EXPECT_GT(regimes.first, 0u) << "no stamped step ran";
  EXPECT_GT(regimes.second, 0u) << "no full-drive step ran";
}

TEST(ThreadPool, PipelineSinglePresentationUsesPoolDeterministically) {
  // n == 1 routes the requested parallelism inside the trace; the
  // workload must equal the threads=1 run bit-for-bit.
  api::PipelineOptions opt;
  opt.images = 1;
  opt.timesteps = 6;
  opt.threads = 1;
  const auto spec = snn::mnist_cnn();
  const api::Workload serial = api::Pipeline(opt).benchmark(spec).run();
  opt.threads = 4;
  const api::Workload pooled = api::Pipeline(opt).benchmark(spec).run();
  ASSERT_EQ(serial.traces.size(), pooled.traces.size());
  EXPECT_EQ(serial.predicted, pooled.predicted);
  for (std::size_t l = 0; l < serial.traces[0].layers.size(); ++l) {
    for (std::size_t t = 0; t < serial.traces[0].layers[l].size(); ++t) {
      const auto a = serial.traces[0].layers[l][t].words();
      const auto b = pooled.traces[0].layers[l][t].words();
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "layer " << l << " step " << t;
    }
  }
}

TEST(ThreadPool, ConcurrentProducersManySmallBursts) {
  // The serving layer's pattern: several producer threads each submitting
  // a tight stream of small jobs to one shared pool.  Every item must run
  // exactly once AND admission must be fair: with tickets every queued
  // producer is admitted in arrival order, so each completes a healthy
  // share of jobs inside the window (pre-ticket, neither CV wakeups nor
  // mutex acquisition carried any ordering, and a tight-loop producer
  // could win the admission race indefinitely).  The deadline-based
  // window keeps the assertion immune to thread start-up jitter, which
  // on an idle machine can exceed a whole burst of tiny jobs.
  ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kCount = 16;
  constexpr long long kPerJob =
      static_cast<long long>(kCount) * (kCount + 1) / 2;

  std::atomic<int> ready{0};
  std::array<std::atomic<long long>, kProducers> sums{};
  std::array<std::atomic<int>, kProducers> jobs{};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ++ready;
      while (ready.load() < kProducers) std::this_thread::yield();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(60);
      while (std::chrono::steady_clock::now() < deadline) {
        pool.run_indexed(kCount, 0, [&](std::size_t i, std::size_t) {
          sums[p].fetch_add(static_cast<long long>(i) + 1,
                            std::memory_order_relaxed);
        });
        jobs[p].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();

  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(sums[p].load(), jobs[p].load() * kPerJob)
        << "producer " << p << " lost or duplicated items";
    // Thousands of jobs fit in the window; a starved producer completes
    // (near) zero.  The floor is deliberately generous so slow machines
    // and sanitizer builds stay green.
    EXPECT_GE(jobs[p].load(), 10) << "producer " << p << " was starved";
  }
}

TEST(ThreadPool, AdmissionIsFifoUnderContention) {
  // Occupy the pool with a long job, queue three producers at spaced
  // intervals, and check they are admitted in arrival order.
  ThreadPool pool(2);
  std::mutex order_mutex;
  std::vector<int> order;

  std::thread blocker([&] {
    pool.run_indexed(8, 2, [](std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(0);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::vector<std::thread> producers;
  for (int p = 1; p <= 3; ++p) {
    producers.emplace_back([&, p] {
      // The ticket is drawn as soon as run_indexed reaches the mutex, so
      // the launch stagger below fixes the admission order.
      pool.run_indexed(4, 2, [](std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(p);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  blocker.join();
  for (auto& t : producers) t.join();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace resparc
