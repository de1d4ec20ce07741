// Fault-aware placement repair: route layers around failed mPEs.
//
// A chip instance with stuck-at faults (core::ResparcConfig::faults) may
// contain MCAs whose stuck-cell density exceeds the failure threshold;
// an mPE holding such an MCA cannot be trusted with synapses.  This pass
// runs between map and route in compile::Compiler::compile: it
// slides every layer's mPE-contiguous span forward to the first span
// containing no failed mPE, preserving layer order, then recomputes the
// whole-chip totals (gaps left by skipped mPEs are legal — the verifier
// only requires total_mpes to cover the last placed mPE).  Routing and
// cost estimation run after repair, so routes and costs always describe
// the repaired placement, and the RV-FAULT verifier passes
// (src/verify/verifier.cpp) independently re-derive the health map to
// prove the emitted program avoids every failed mPE
// (docs/reliability.md).
#pragma once

#include <cstddef>

#include "core/mapper.hpp"

namespace resparc::compile {

/// Re-places `mapping`'s layers around failed mPEs (no-op unless
/// faults.enabled && faults.repair).  Returns the number of layers that
/// moved.  Throws MappingError when the chip's NeuroCell budget
/// (faults.chip_neurocells, 0 = unbounded) cannot hold the repaired
/// placement.
std::size_t repair_placement(core::Mapping& mapping);

}  // namespace resparc::compile
