#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

// Captured during static initialisation, before main(): the start of
// the process as far as setup_s is concerned.
const Clock::time_point kEpoch = Clock::now();

thread_local std::vector<std::uint64_t> t_open_spans;
thread_local std::vector<std::uint64_t> t_open_requests;

}  // namespace

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

std::int64_t now_ns() { return to_ns(Clock::now()); }

double seconds_since_start() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kSetup: return "setup";
    case Phase::kWarmup: return "warmup";
    case Phase::kTimed: return "timed";
    case Phase::kCheck: return "check";
  }
  return "?";
}

// ----------------------------------------------------------------- tracing --

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::uint32_t Tracer::thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1) + 1;
  return id;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request,
                       std::uint64_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.next_id();
  span_.parent = parent != kInherit
                     ? parent
                     : (t_open_spans.empty() ? 0 : t_open_spans.back());
  span_.request = request != 0 ? request
                               : (t_open_requests.empty()
                                      ? 0
                                      : t_open_requests.back());
  span_.tid = Tracer::thread_id();
  span_.phase = tracer.phase();
  t_open_spans.push_back(span_.id);
  t_open_requests.push_back(span_.request);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_open_spans.pop_back();
  t_open_requests.pop_back();
  Tracer::instance().record(std::move(span_));
}

std::vector<double> span_ms(const std::vector<Span>& spans,
                            const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.name == name) out.push_back(s.ms());
  return out;
}

std::map<std::string, std::map<std::string, double>> self_time_by_layer(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::string, std::map<std::string, double>> out;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (auto it = children.find(s.id); it != children.end())
      for (const Span* c : it->second)
        covered.emplace_back(std::max(c->start_ns, s.start_ns),
                             std::min(c->end_ns, s.end_ns));
    std::sort(covered.begin(), covered.end());
    std::int64_t busy = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [begin, end] : covered) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) {
        busy += end - from;
        reach = end;
      }
    }
    const double self_ms =
        static_cast<double>(s.end_ns - s.start_ns - busy) * 1e-6;
    out[to_string(s.phase)][s.layer()] += self_ms;
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        const std::string& metadata_json) {
  std::ofstream os(path);
  if (!os) throw BenchError("cannot write trace file " + path);
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata_json
     << ",\n\"traceEvents\": [\n";
  bool first = true;
  char buffer[96];
  for (const Span& s : spans) {
    if (!first) os << ",\n";
    first = false;
    // Chrome trace timestamps are microseconds; keep ns resolution.
    std::snprintf(buffer, sizeof buffer, "\"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << "{\"name\": " << json_str(s.name) << ", \"cat\": "
       << json_str(s.layer()) << ", \"ph\": \"X\", " << buffer
       << ", \"pid\": 1, \"tid\": " << s.tid << ", \"args\": {\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"request\": " << s.request
       << ", \"phase\": \"" << to_string(s.phase) << "\"}}";
  }
  os << "\n]}\n";
  if (!os) throw BenchError("cannot write trace file " + path);
}

// ---------------------------------------------------------------- numbers --

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Result::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  failures.push_back(why);
}

void Result::e2e(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Result::layer(std::string name, double value, std::string unit) {
  per_layer.push_back({std::move(name), value, std::move(unit)});
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) throw BenchError("non-finite metric value");
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

void print_result_line(std::ostream& os, const Result& result, bool traced) {
  const std::vector<Metric>& metrics =
      traced ? result.per_layer : result.end_to_end;
  os << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_str(metrics[i].name)
       << ": {\"value\": " << json_num(metrics[i].value)
       << ", \"unit\": " << json_str(metrics[i].unit) << "}";
  }
  os << "}}\n";
}

// -------------------------------------------------------------- host facts --

HostFacts host_facts() {
  HostFacts facts;
  const unsigned hw = std::thread::hardware_concurrency();
  facts.cores = hw == 0 ? 1 : hw;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos)
        facts.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  if (facts.cpu_model.empty()) facts.cpu_model = "unknown";
#ifdef PERFBENCH_BUILD_TYPE
  facts.build_type = PERFBENCH_BUILD_TYPE;
#endif
#ifdef PERFBENCH_COMPILER
  facts.compiler = PERFBENCH_COMPILER;
#endif
#ifndef NDEBUG
  facts.assertions = true;
#endif
  return facts;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ----------------------------------------------------------- report checks --

std::vector<double> report_fields(const resparc::api::ExecutionReport& r) {
  std::vector<double> f = {static_cast<double>(r.classifications),
                           r.energy_pj, r.latency_ns, r.throughput_hz};
  for (const auto& [name, value] : r.energy_breakdown_pj) f.push_back(value);
  for (const auto& [name, value] : r.latency_breakdown_ns) f.push_back(value);
  if (r.resparc) {
    const auto& e = r.resparc->energy;
    f.insert(f.end(), {e.neuron_pj, e.crossbar_pj, e.buffer_pj, e.control_pj,
                       e.comm_pj, e.leakage_pj});
    const auto& p = r.resparc->perf;
    f.insert(f.end(), {p.cycles_pipelined, p.cycles_serial, p.cycles_compute,
                       p.cycles_transport, p.cycles_stall, p.clock_mhz});
    const auto& ev = r.resparc->events;
    f.insert(f.end(), {static_cast<double>(ev.mca_activations),
                       static_cast<double>(ev.mca_skips),
                       static_cast<double>(ev.neuron_integrations),
                       static_cast<double>(ev.neuron_fires),
                       static_cast<double>(ev.buffer_bits)});
    for (const auto* level : {&r.resparc->noc.mesh, &r.resparc->noc.tree,
                              &r.resparc->noc.bus}) {
      f.insert(f.end(), {static_cast<double>(level->words),
                         static_cast<double>(level->hops),
                         static_cast<double>(level->drops), level->stall_cycles,
                         level->busy_cycles,
                         static_cast<double>(level->queue_peak)});
    }
  }
  if (r.cmos) {
    const auto& c = *r.cmos;
    f.insert(f.end(), {c.energy.core_pj, c.energy.memory_access_pj,
                       c.energy.memory_leakage_pj, c.cycles, c.clock_mhz,
                       static_cast<double>(c.classifications)});
  }
  return f;
}

bool same_report(const resparc::api::ExecutionReport& a,
                 const resparc::api::ExecutionReport& b) {
  if (a.backend != b.backend) return false;
  const std::vector<double> fa = report_fields(a);
  const std::vector<double> fb = report_fields(b);
  return fa.size() == fb.size() &&
         std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)) == 0;
}

std::uint64_t report_digest(const resparc::api::ExecutionReport& report) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  mix(report.backend.data(), report.backend.size());
  const std::vector<double> fields = report_fields(report);
  mix(fields.data(), fields.size() * sizeof(double));
  return h;
}

bool same_trace(const resparc::snn::SpikeTrace& a,
                const resparc::snn::SpikeTrace& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    if (a.layers[l].size() != b.layers[l].size()) return false;
    for (std::size_t t = 0; t < a.layers[l].size(); ++t) {
      const auto wa = a.layers[l][t].words();
      const auto wb = b.layers[l][t].words();
      if (a.layers[l][t].size() != b.layers[l][t].size() ||
          !std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
        return false;
    }
  }
  return true;
}

}  // namespace perfbench
