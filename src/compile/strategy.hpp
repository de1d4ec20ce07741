// MappingStrategy: how the compiler lowers a topology onto the fabric.
//
// A strategy turns a topology into a tiled and placed core::Mapping in
// one map() call: it decides how each layer's connectivity matrix is cut
// into MCA groups and where the resulting MCAs sit in the mPE/NeuroCell
// hierarchy.  The set is closed; make_strategy builds one of four:
//
//   "paper"        the hierarchical mapper of paper section 3.1, verbatim
//                  (core::map_network) — bit-for-bit identical RunReports
//                  to the legacy path
//   "greedy-pack"  utilisation-first: shared-window conv tiling regardless
//                  of the config flag, pool windows packed across
//                  row/channel boundaries, MCAs packed into mPEs ignoring
//                  layer-order boundaries
//   "anneal"       simulated annealing over per-layer tile policy, MCA size
//                  (heterogeneous mixes) and NeuroCell alignment, scored by
//                  a CostOracle (src/compile/search, docs/compile.md)
//   "beam"         deterministic beam search over the same move space
//
// Compiler::compile also accepts "auto", which compiles all four and keeps
// the best-scoring program.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/mapper.hpp"
#include "snn/topology.hpp"

namespace resparc::compile {

/// One mapping policy.  Implementations are stateless (const methods, no
/// fields mutated by map) so one instance can compile many topologies.
class MappingStrategy {
 public:
  virtual ~MappingStrategy() = default;

  /// Strategy name, as accepted by make_strategy.
  virtual std::string name() const = 0;

  /// Tiles and places every layer of `topology`: groups, mux degree and
  /// per-layer counts, first_mpe/first_nc/last_nc, per-layer MCA size
  /// overrides and consistent whole-chip totals.
  virtual core::Mapping map(const snn::Topology& topology,
                            const core::ResparcConfig& config) const = 0;
};

/// The four strategies make_strategy builds, in the order
/// compile("auto") tries them.
const std::vector<std::string>& strategy_names();

/// Every name Compiler::compile accepts, for error messages:
/// strategy_names() joined as "a, b, c", then "auto".
std::string strategy_name_list();

/// Creates the named strategy; throws CompileError for "auto" and for
/// unknown names (the message carries strategy_name_list()).
std::unique_ptr<MappingStrategy> make_strategy(const std::string& name);

/// Pool tiling that packs windows across output-row and channel boundaries
/// (greedy-pack's pool policy, exposed for the search strategies' tile
/// moves).  Falls back to core::tile_layer_paper when one band already
/// fills an array.
core::LayerMapping tile_pool_packed(const snn::LayerInfo& li,
                                    std::size_t layer_index,
                                    const core::ResparcConfig& config);

}  // namespace resparc::compile
