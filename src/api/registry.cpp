#include "api/registry.hpp"

#include <algorithm>

#include "api/backends.hpp"
#include "compile/strategy.hpp"

namespace resparc::api {
namespace {

/// One backend key.  `compiled` keys build a ResparcBackend and take a
/// "/<strategy>" suffix; `mca` overrides options.resparc.mca_size (0
/// keeps it).  The others build the CMOS baseline.
struct BackendKey {
  const char* name;
  bool compiled;
  std::size_t mca;
};

constexpr BackendKey kBackends[] = {
    {"resparc", true, 0},       {"resparc-32", true, 32},
    {"resparc-64", true, 64},   {"resparc-128", true, 128},
    {"resparc-256", true, 256}, {"cmos", false, 0},
    {"falcon", false, 0},
};

/// "backends: ...; strategies: ..." — the list every BackendError ends with.
std::string known_names() {
  std::string out = "backends:";
  for (const BackendKey& key : kBackends) out += std::string(" ") + key.name;
  return out + "; strategies: " + compile::strategy_name_list();
}

}  // namespace

std::unique_ptr<Accelerator> make_accelerator(const std::string& name,
                                              const BackendOptions& options) {
  // Split the optional "base/<strategy>" suffix: "resparc-64/greedy-pack".
  const std::size_t slash = name.find('/');
  const bool has_suffix = slash != std::string::npos;
  const std::string base = name.substr(0, slash);
  const std::string strategy =
      has_suffix ? name.substr(slash + 1) : options.strategy;
  if (has_suffix && strategy.empty())
    throw BackendError("empty mapping strategy in \"" + name + "\" (" +
                       known_names() + ")");
  const BackendKey* key =
      std::find_if(std::begin(kBackends), std::end(kBackends),
                   [&](const BackendKey& k) { return base == k.name; });
  if (key == std::end(kBackends))
    throw BackendError("unknown backend \"" + base + "\" (" + known_names() +
                       ")");

  // Whichever channel chose the strategy (suffix or options), a typo must
  // surface here as BackendError, not later at load() time.
  if (strategy.empty())
    throw BackendError("empty options.strategy for \"" + name + "\" (" +
                       known_names() + ")");
  const std::vector<std::string>& strategies = compile::strategy_names();
  if (strategy != "auto" &&
      std::find(strategies.begin(), strategies.end(), strategy) ==
          strategies.end())
    throw BackendError("unknown mapping strategy \"" + strategy + "\" in \"" +
                       name + "\" (" + known_names() + ")");

  if (!key->compiled) {
    // A suffix the baseline cannot honour would be silently ignored —
    // reject it instead.
    if (has_suffix)
      throw BackendError("backend \"" + base +
                         "\" does not support mapping strategies (\"" + name +
                         "\")");
    return std::make_unique<CmosBackend>(options.cmos);
  }
  core::ResparcConfig config = options.resparc;
  if (key->mca != 0) config.mca_size = key->mca;
  return std::make_unique<ResparcBackend>(config, strategy, options.noc);
}

}  // namespace resparc::api
