#include "compile/program.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <ios>

#include "verify/verifier.hpp"

namespace resparc::compile {

namespace {

constexpr const char* kMagic = "resparc-compiled-program";
// v3 added the per-layer MCA size (heterogeneous chips from the search
// strategies; 0 = inherit config.mca_size).  v2 added the per-boundary
// Ml-NoC route table.  Older artifacts are rejected — recompiling is
// cheap and both fields are part of the contract the executor runs on.
constexpr int kVersion = 3;

void put(std::ostream& os, double v) { os << std::hexfloat << v << std::defaultfloat; }

/// The format is whitespace-delimited, so free-text fields (topology names)
/// are stored with whitespace folded to '-'.
std::string token(const std::string& s) {
  std::string out = s.empty() ? std::string("-") : s;
  for (char& c : out)
    if (std::isspace(static_cast<unsigned char>(c))) c = '-';
  return out;
}

/// Stable diagnostic code of every "the stream is not a well-formed v2
/// blob" failure (docs/verification.md).
constexpr const char* kMalformed = "RV-BLOB-MALFORMED";

/// Reads one whitespace-delimited token and checks it against `expect`.
void expect_token(std::istream& is, const char* expect) {
  std::string tok;
  if (!(is >> tok) || tok != expect)
    throw CompileError("expected \"" + std::string(expect) + "\", got \"" +
                           tok + "\"",
                       kMalformed);
}

template <typename T>
T read_value(std::istream& is, const char* field) {
  T v{};
  if (!(is >> v))
    throw CompileError("malformed field \"" + std::string(field) + "\"",
                       kMalformed);
  return v;
}

/// Reads a container count and bounds it, so a corrupt file fails as
/// CompileError rather than bad_alloc.
std::size_t read_count(std::istream& is, const char* field, std::size_t max) {
  const auto v = read_value<std::size_t>(is, field);
  if (v > max)
    throw CompileError("implausible count " + std::to_string(v) +
                           " in field \"" + std::string(field) + "\"",
                       kMalformed);
  return v;
}

/// Pre-allocation for a parsed count: capped so even the largest admissible
/// count cannot trigger a huge up-front reserve — a lying count then fails
/// at the first missing token, after only incremental growth.
std::size_t reserve_hint(std::size_t count) {
  return std::min<std::size_t>(count, 4096);
}

double read_double(std::istream& is, const char* field) {
  // std::hexfloat extraction is unreliable across standard libraries, so
  // hexfloats are parsed via strtod from a token.
  std::string tok;
  if (!(is >> tok))
    throw CompileError("malformed field \"" + std::string(field) + "\"",
                       kMalformed);
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == nullptr || *end != '\0')
    throw CompileError("malformed double \"" + tok + "\" in field \"" +
                           std::string(field) + "\"",
                       kMalformed);
  return v;
}

}  // namespace

std::vector<LayerUtilization> utilization_report(const snn::Topology& topology,
                                                 const core::Mapping& mapping) {
  require(topology.layer_count() == mapping.layers.size(),
          "utilization_report: mapping does not match topology");
  std::vector<LayerUtilization> report;
  report.reserve(mapping.layers.size());
  for (std::size_t l = 0; l < mapping.layers.size(); ++l) {
    const core::LayerMapping& lm = mapping.layers[l];
    LayerUtilization u;
    u.layer = l;
    u.kind = snn::to_string(topology.layers()[l].spec.kind);
    u.mcas = lm.mca_count;
    u.mpes = lm.mpe_count;
    u.synapses = lm.synapses;
    u.utilization = lm.utilization;
    report.push_back(std::move(u));
  }
  return report;
}

void CompiledProgram::save(std::ostream& os) const {
  os << kMagic << " v" << kVersion << "\n";
  os << "strategy " << token(strategy) << "\n";
  os << "topology " << token(topology_name) << " " << token(topology_summary)
     << "\n";
  os << "fingerprint " << config_fingerprint << "\n";

  os << "cost ";
  put(os, cost.energy_pj_per_step);
  os << " ";
  put(os, cost.cycles_per_step);
  os << " ";
  put(os, cost.utilization);
  os << " " << cost.bus_boundaries << " " << cost.total_mcas << " "
     << cost.total_neurocells << " ";
  put(os, cost.activity);
  os << "\n";

  os << "totals " << mapping.total_mcas << " " << mapping.total_mpes << " "
     << mapping.total_neurocells << " ";
  put(os, mapping.utilization);
  os << "\n";

  os << "layers " << mapping.layers.size() << "\n";
  for (const core::LayerMapping& lm : mapping.layers) {
    os << "layer " << lm.layer << " " << lm.mca_count << " " << lm.mpe_count
       << " " << lm.mux_degree << " " << lm.mux_cycles << " "
       << lm.ccu_transfers_per_neuron << " " << lm.synapses << " "
       << lm.first_mpe << " " << lm.first_nc << " " << lm.last_nc << " "
       << lm.mca_size << " ";
    put(os, lm.utilization);
    os << "\n";
    os << "groups " << lm.groups.size() << "\n";
    for (const core::McaGroup& g : lm.groups) {
      os << "group " << static_cast<int>(g.slice.kind) << " " << g.slice.begin
         << " " << g.slice.end << " " << g.slice.y0 << " " << g.slice.y1
         << " " << g.slice.x0 << " " << g.slice.x1 << " " << g.mca_count
         << " " << g.rows_used << " " << g.cols_used << " " << g.synapses
         << "\n";
    }
  }

  os << "routes " << routes.size() << "\n";
  for (const noc::Route& r : routes.boundaries) {
    os << "route " << r.boundary << " " << r.src_nc << " " << r.dst_nc_first
       << " " << r.dst_nc_last << " " << (r.uses_bus ? 1 : 0) << " "
       << r.mesh_hops << " " << r.tree_hops << " " << r.lca_height << " "
       << r.src_span << "\n";
  }

  os << "report " << report.size() << "\n";
  for (const LayerUtilization& u : report) {
    os << "u " << u.layer << " " << u.kind << " " << u.mcas << " " << u.mpes
       << " " << u.synapses << " ";
    put(os, u.utilization);
    os << "\n";
  }
}

bool CompiledProgram::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  save(out);
  return static_cast<bool>(out);
}

CompiledProgram CompiledProgram::parse(std::istream& is,
                                       const core::ResparcConfig& config) {
  CompiledProgram p;

  expect_token(is, kMagic);
  std::string version;
  // Built as "v" + number in two appends: the one-expression
  // `"v" + std::to_string(...)` makes GCC 12's -Wrestrict misfire under
  // -march=native inlining (a libstdc++ operator+ false positive that
  // would break the -Werror native-arch CI job).
  std::string expected_version("v");
  expected_version += std::to_string(kVersion);
  if (!(is >> version) || version != expected_version)
    throw CompileError("unsupported program version \"" + version + "\"",
                       "RV-BLOB-VERSION");

  expect_token(is, "strategy");
  p.strategy = read_value<std::string>(is, "strategy");
  expect_token(is, "topology");
  p.topology_name = read_value<std::string>(is, "topology name");
  p.topology_summary = read_value<std::string>(is, "topology summary");
  expect_token(is, "fingerprint");
  p.config_fingerprint = read_value<std::uint64_t>(is, "fingerprint");
  if (p.config_fingerprint != config.fingerprint())
    throw CompileError(
        "config fingerprint mismatch: program was compiled for a different "
        "configuration (recorded " +
            std::to_string(p.config_fingerprint) + ", current " +
            std::to_string(config.fingerprint()) + ")",
        "RV-CONS-FINGERPRINT");

  expect_token(is, "cost");
  p.cost.energy_pj_per_step = read_double(is, "cost.energy");
  p.cost.cycles_per_step = read_double(is, "cost.cycles");
  p.cost.utilization = read_double(is, "cost.utilization");
  p.cost.bus_boundaries = read_value<std::size_t>(is, "cost.bus_boundaries");
  p.cost.total_mcas = read_value<std::size_t>(is, "cost.total_mcas");
  p.cost.total_neurocells = read_value<std::size_t>(is, "cost.total_neurocells");
  p.cost.activity = read_double(is, "cost.activity");

  expect_token(is, "totals");
  p.mapping.config = config;
  p.mapping.total_mcas = read_value<std::size_t>(is, "total_mcas");
  p.mapping.total_mpes = read_value<std::size_t>(is, "total_mpes");
  p.mapping.total_neurocells = read_value<std::size_t>(is, "total_neurocells");
  p.mapping.utilization = read_double(is, "utilization");

  expect_token(is, "layers");
  const std::size_t layers = read_count(is, "layer count", 1u << 20);
  p.mapping.layers.reserve(reserve_hint(layers));
  for (std::size_t l = 0; l < layers; ++l) {
    expect_token(is, "layer");
    core::LayerMapping lm;
    lm.layer = read_value<std::size_t>(is, "layer index");
    lm.mca_count = read_value<std::size_t>(is, "mca_count");
    lm.mpe_count = read_value<std::size_t>(is, "mpe_count");
    lm.mux_degree = read_value<std::size_t>(is, "mux_degree");
    lm.mux_cycles = read_value<std::size_t>(is, "mux_cycles");
    lm.ccu_transfers_per_neuron = read_value<std::size_t>(is, "ccu");
    lm.synapses = read_value<std::size_t>(is, "synapses");
    lm.first_mpe = read_value<std::size_t>(is, "first_mpe");
    lm.first_nc = read_value<std::size_t>(is, "first_nc");
    lm.last_nc = read_value<std::size_t>(is, "last_nc");
    lm.mca_size = read_value<std::size_t>(is, "layer mca_size");
    lm.utilization = read_double(is, "layer utilization");

    expect_token(is, "groups");
    const std::size_t groups = read_count(is, "group count", 1u << 20);
    lm.groups.reserve(reserve_hint(groups));
    for (std::size_t g = 0; g < groups; ++g) {
      expect_token(is, "group");
      core::McaGroup mg;
      const int kind = read_value<int>(is, "slice kind");
      if (kind != 0 && kind != 1)
        throw CompileError("invalid slice kind " + std::to_string(kind),
                           kMalformed);
      mg.slice.kind = static_cast<core::SliceKind>(kind);
      mg.slice.begin = read_value<std::size_t>(is, "slice begin");
      mg.slice.end = read_value<std::size_t>(is, "slice end");
      mg.slice.y0 = read_value<std::size_t>(is, "slice y0");
      mg.slice.y1 = read_value<std::size_t>(is, "slice y1");
      mg.slice.x0 = read_value<std::size_t>(is, "slice x0");
      mg.slice.x1 = read_value<std::size_t>(is, "slice x1");
      mg.mca_count = read_value<std::size_t>(is, "group mca_count");
      mg.rows_used = read_value<std::size_t>(is, "rows_used");
      mg.cols_used = read_value<std::size_t>(is, "cols_used");
      mg.synapses = read_value<std::size_t>(is, "group synapses");
      lm.groups.push_back(mg);
    }
    p.mapping.layers.push_back(std::move(lm));
  }

  expect_token(is, "routes");
  const std::size_t routes = read_count(is, "route count", 1u << 20);
  p.routes.boundaries.reserve(reserve_hint(routes));
  for (std::size_t r = 0; r < routes; ++r) {
    expect_token(is, "route");
    noc::Route route;
    route.boundary = read_value<std::size_t>(is, "route boundary");
    route.src_nc = read_value<std::size_t>(is, "route src_nc");
    route.dst_nc_first = read_value<std::size_t>(is, "route dst_nc_first");
    route.dst_nc_last = read_value<std::size_t>(is, "route dst_nc_last");
    const int bus = read_value<int>(is, "route uses_bus");
    if (bus != 0 && bus != 1)
      throw CompileError("invalid route uses_bus " + std::to_string(bus),
                         kMalformed);
    route.uses_bus = bus == 1;
    route.mesh_hops = read_value<std::size_t>(is, "route mesh_hops");
    route.tree_hops = read_value<std::size_t>(is, "route tree_hops");
    route.lca_height = read_value<std::size_t>(is, "route lca_height");
    route.src_span = read_value<std::size_t>(is, "route src_span");
    p.routes.boundaries.push_back(route);
  }

  expect_token(is, "report");
  const std::size_t rows = read_count(is, "report count", 1u << 20);
  p.report.reserve(reserve_hint(rows));
  for (std::size_t r = 0; r < rows; ++r) {
    expect_token(is, "u");
    LayerUtilization u;
    u.layer = read_value<std::size_t>(is, "report layer");
    u.kind = read_value<std::string>(is, "report kind");
    u.mcas = read_value<std::size_t>(is, "report mcas");
    u.mpes = read_value<std::size_t>(is, "report mpes");
    u.synapses = read_value<std::size_t>(is, "report synapses");
    u.utilization = read_double(is, "report utilization");
    p.report.push_back(std::move(u));
  }

  // The payload ends here: anything beyond whitespace is rejected, so a
  // blob with a second program (or garbage) appended cannot load as if
  // it were intact.
  is >> std::ws;
  if (is.peek() != std::istream::traits_type::eof())
    throw CompileError("trailing bytes after program payload",
                       "RV-BLOB-TRAILING");

  return p;
}

CompiledProgram CompiledProgram::load(std::istream& is,
                                      const core::ResparcConfig& config) {
  CompiledProgram p = parse(is, config);
  // Mandatory static verification: a deserialized program is checked
  // against every structural/capacity/consistency invariant before any
  // caller can execute on it (docs/verification.md).
  verify::verify_program(p).raise_if_errors("loaded program");
  return p;
}

CompiledProgram CompiledProgram::load_file(const std::string& path,
                                           const core::ResparcConfig& config) {
  std::ifstream in(path);
  if (!in) throw CompileError("cannot open \"" + path + "\"");
  return load(in, config);
}

void CompiledProgram::check_matches(const snn::Topology& topology) const {
  if (mapping.layers.size() != topology.layer_count())
    throw CompileError("program has " + std::to_string(mapping.layers.size()) +
                       " layers but topology \"" + topology.name() + "\" has " +
                       std::to_string(topology.layer_count()));
  if (!topology_summary.empty() && topology_summary != token(topology.summary()))
    throw CompileError("program was compiled for topology " +
                       topology_summary + ", not " + topology.summary());
  for (std::size_t l = 0; l < mapping.layers.size(); ++l) {
    if (mapping.layers[l].synapses != topology.layers()[l].synapses)
      throw CompileError("layer " + std::to_string(l) + " synapse mismatch: " +
                         std::to_string(mapping.layers[l].synapses) + " vs " +
                         std::to_string(topology.layers()[l].synapses));
  }
  if (routes.size() != topology.layer_count() + 1)
    throw CompileError("program carries " + std::to_string(routes.size()) +
                       " routes but topology \"" + topology.name() +
                       "\" has " + std::to_string(topology.layer_count() + 1) +
                       " boundaries");
}

std::uint64_t program_cache_key(const core::ResparcConfig& config,
                                const snn::Topology& topology,
                                const std::string& strategy) {
  // FNV-1a, seeded with the config fingerprint so the key inherits every
  // architecture/device knob the fingerprint already covers.
  std::uint64_t h = 0xcbf29ce484222325ull ^ config.fingerprint();
  const auto mix = [&h](const std::string& text) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator: "ab"+"c" and "a"+"bc" hash differently
    h *= 0x100000001b3ull;
  };
  mix(topology.summary());
  mix(strategy);
  return h;
}

}  // namespace resparc::compile
