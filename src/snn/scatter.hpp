// Shared spike-event scatter: ONE implementation of "add the fan-out of
// these input events into the output current buffer" for every layer
// kind, built on the kernels layer (common/kernels.hpp).
//
// The engine's full-drive step (snn/sparse_engine.hpp) scatters from the
// packed words, the dense reference simulation (snn::simulate_reference)
// from the index list; both overloads share one loop nest per layer kind,
// so their floating-point results are bit-for-bit identical by
// construction, not by parallel maintenance of two loop nests
// (docs/performance.md).
//
// The `part/parts` pair partitions the OUTPUT space (dense columns, conv
// output channels, pool output indices) so the simulator can spread one
// big layer across pool workers: each output element is written by
// exactly one partition and sees its additions in the exact order the
// unpartitioned call would use, so results are partition-count
// invariant.
#pragma once

#include <cstdint>
#include <span>

#include "common/matrix.hpp"
#include "snn/topology.hpp"
#include "snn/trace.hpp"

namespace resparc::snn {

/// Floats of position-major scratch scatter_accumulate needs for layer
/// `li`: the population for conv layers, 0 for dense and pool layers.
std::size_t scatter_scratch_size(const LayerInfo& li);

/// Scatters the fan-out of `in_active` (ascending input indices) of a
/// layer described by `li` with weight matrix `w` (empty for pool
/// layers) into `current`, writing only the output slice owned by
/// partition `part` of `parts`.  `current` must be zero in that slice:
/// the call does not zero it, callers own the all-zero invariant.
/// Conv layers also need the caller's `scratch`, scatter_scratch_size(li)
/// floats, all zero: they sum each tap into it position-major
/// ([out.h*out.w][out.c]), copy the sums over their slice of `current`
/// and hand the scratch back all-zero.  Partitions use disjoint channel
/// slices of it, so one scratch serves every partition of a layer.
/// Dense and pool layers ignore `scratch` (it may be empty).
void scatter_accumulate(const LayerInfo& li, const Matrix& w,
                        std::span<const std::uint32_t> in_active,
                        std::span<float> current, std::span<float> scratch,
                        std::size_t part = 0, std::size_t parts = 1);

/// Packed-spike form of scatter_accumulate, with the same `current` and
/// `scratch` contract: input events arrive as the SpikeVector's 64-bit
/// words instead of an index list, so no AER list is materialized.  Set
/// bits are decoded in ascending order — the order append_active()
/// emits — and dense layers run kernels::masked_row_accumulate straight
/// off the words, so the result is bit-for-bit identical to the
/// index-list overload on the same spike pattern
/// (tests/test_differential.cpp).  This is the scatter of the engine's
/// full-drive step (docs/execution.md).
void scatter_accumulate(const LayerInfo& li, const Matrix& w,
                        const SpikeVector& in, std::span<float> current,
                        std::span<float> scratch, std::size_t part = 0,
                        std::size_t parts = 1);

}  // namespace resparc::snn
