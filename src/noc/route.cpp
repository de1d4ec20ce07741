#include "noc/route.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace resparc::noc {

std::string to_string(Fidelity fidelity) {
  return fidelity == Fidelity::kAnalytic ? "analytic" : "event";
}

bool parse_fidelity(const std::string& text, Fidelity& out) {
  if (text == "analytic") {
    out = Fidelity::kAnalytic;
    return true;
  }
  if (text == "event") {
    out = Fidelity::kEvent;
    return true;
  }
  return false;
}

const Route& RouteTable::at(std::size_t b) const {
  require(b < boundaries.size(), "route table: boundary out of range");
  return boundaries[b];
}

std::size_t tree_depth(std::size_t neurocells) {
  // ceil(log2(neurocells)) without a doubling loop, so any count —
  // including a corrupt SIZE_MAX from a loaded blob — terminates.
  return neurocells <= 1 ? 0 : static_cast<std::size_t>(
                                   std::bit_width(neurocells - 1));
}

std::size_t lca_height_of(std::size_t a, std::size_t b) {
  // Leaves differ first at their highest differing bit.
  return static_cast<std::size_t>(std::bit_width(a ^ b));
}

RouteTable compute_routes(const core::Mapping& mapping) {
  const std::size_t layers = mapping.layers.size();
  require(layers > 0, "compute_routes: empty mapping");
  const std::size_t depth = tree_depth(mapping.total_neurocells);
  // Representative mesh path inside a NeuroCell: a word entering the
  // nc_dim x nc_dim mPE grid crosses one switch column per grid step,
  // i.e. nc_dim - 1 switches of the (nc_dim-1)^2 mesh (Fig. 6).
  const std::size_t mesh = mapping.config.nc_dim - 1;

  RouteTable table;
  table.boundaries.reserve(layers + 2);

  for (std::size_t b = 0; b <= layers; ++b) {
    Route r;
    r.boundary = b;
    if (b == 0) {
      // Input broadcast: SRAM at the root descends to layer 0's cells.
      const core::LayerMapping& dst = mapping.layers[0];
      r.src_nc = dst.first_nc;
      r.dst_nc_first = dst.first_nc;
      r.dst_nc_last = dst.last_nc;
      r.uses_bus = true;
      r.tree_hops = depth;
      r.lca_height = depth;  // the SRAM hangs off the root
      r.src_span = 1;        // ... as one serial port
    } else if (b == layers) {
      // Final-layer egress: climb from the last layer's cells to the root.
      const core::LayerMapping& src = mapping.layers[layers - 1];
      r.src_nc = src.last_nc;
      r.dst_nc_first = src.last_nc;
      r.dst_nc_last = src.last_nc;
      r.uses_bus = true;
      r.tree_hops = depth;
      r.lca_height = depth;  // results leave through the root port
      r.src_span = src.last_nc - src.first_nc + 1;
    } else {
      const core::LayerMapping& src = mapping.layers[b - 1];
      const core::LayerMapping& dst = mapping.layers[b];
      r.src_nc = src.last_nc;
      r.dst_nc_first = dst.first_nc;
      r.dst_nc_last = dst.last_nc;
      r.uses_bus = mapping.boundary_uses_bus(b);
      if (r.uses_bus) {
        // The transfer climbs only to the lowest level whose subtree
        // covers both endpoint ranges (the Ml-NoC's locality lever:
        // neighbouring cells never touch the root).
        const std::size_t span_min = std::min(src.first_nc, r.dst_nc_first);
        const std::size_t span_max = std::max(src.last_nc, r.dst_nc_last);
        r.lca_height = std::max<std::size_t>(
            1, lca_height_of(span_min, span_max));
        r.tree_hops = 2 * r.lca_height;  // ascent + descent
      } else {
        r.mesh_hops = mesh;
      }
      r.src_span = src.last_nc - src.first_nc + 1;
    }
    table.boundaries.push_back(r);
  }
  return table;
}

}  // namespace resparc::noc
