// Shared plumbing of the repo benchmark (perfbench/README.md): span
// tracing, percentile helpers, the metric report, host facts and
// bit-exact comparison of replay reports.
//
// Every layer is measured from outside: the workloads wrap their own
// calls into the library's public functions in ScopedSpan, and the
// per-layer numbers are read back from those spans.  Nothing here links
// into or changes the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/accelerator.hpp"
#include "snn/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds of `t` since the benchmark's epoch (process start).
std::int64_t to_ns(Clock::time_point t);
/// Nanoseconds since the benchmark's epoch.
std::int64_t now_ns();
/// Seconds since the process started.
double seconds_since_start();

/// A benchmark failure that is not an output mismatch (bad arguments,
/// a non-positive time, a non-Release build): exits non-zero without a
/// result line.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ----------------------------------------------------------------- tracing --

/// Which part of a run a span belongs to.
enum class Phase { kSetup, kWarmup, kTimed, kCheck };
const char* to_string(Phase phase);

/// One recorded call: `name` is "<layer>.<call>".
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< shared by the spans of one request; 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
  Phase phase = Phase::kSetup;

  std::string layer() const { return name.substr(0, name.find('.')); }
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Process-wide in-memory span store.  Spans are only recorded while
/// enabled; they are written out once, when the run ends.
class Tracer {
 public:
  static Tracer& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  Phase phase() const { return phase_.load(std::memory_order_relaxed); }
  void set_phase(Phase phase) { phase_.store(phase, std::memory_order_relaxed); }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(Span span);
  std::vector<Span> spans() const;
  /// Small stable id of the calling thread.
  static std::uint32_t thread_id();

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<Phase> phase_{Phase::kSetup};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call.  Nests under the innermost open span of
/// the same thread unless `parent` is given.  Costs one branch when the
/// tracer is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0,
                      std::uint64_t parent = kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

 private:
  bool active_ = false;
  Span span_;
};

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
decltype(auto) traced(const char* name, Fn&& fn) {
  ScopedSpan span(name);
  return fn();
}

/// Durations (ms) of every span called `name`, optionally of one phase.
std::vector<double> span_ms(const std::vector<Span>& spans,
                            const std::string& name);

/// Self time per layer (ms): each span's duration minus the union of its
/// children's intervals, summed by layer.  Keyed by phase then layer.
std::map<std::string, std::map<std::string, double>> self_time_by_layer(
    const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON (Perfetto-viewable).
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& metadata_json);

// ---------------------------------------------------------------- numbers --

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< rejected + failed + mismatched
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;  ///< one line per failed check

  void fail(const std::string& why, std::uint64_t count = 1);
  void e2e(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);
};

/// Prints `{"correct":..., "attempted":..., "failed":..., "metrics":{...}}`.
void print_result_line(std::ostream& os, const Result& result, bool traced);

/// JSON string literal of `s`.
std::string json_str(const std::string& s);
/// Shortest exact decimal form of `v` (all digits kept).
std::string json_num(double v);

// -------------------------------------------------------------- host facts --

struct HostFacts {
  unsigned cores = 0;
  std::string cpu_model;
  std::string build_type;
  std::string compiler;
  bool assertions = false;  ///< NDEBUG unset
};
HostFacts host_facts();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

// ----------------------------------------------------------- report checks --

/// Every number an ExecutionReport carries, in a fixed order, so two
/// reports compare bit for bit.
std::vector<double> report_fields(const resparc::api::ExecutionReport& report);
/// True when the two reports are bit-identical (name, headline numbers,
/// buckets and native report counters).
bool same_report(const resparc::api::ExecutionReport& a,
                 const resparc::api::ExecutionReport& b);
/// FNV-1a digest of same_report's fields (cheap enough for a callback).
std::uint64_t report_digest(const resparc::api::ExecutionReport& report);
/// True when the two traces hold the same spikes.
bool same_trace(const resparc::snn::SpikeTrace& a,
                const resparc::snn::SpikeTrace& b);

}  // namespace perfbench
