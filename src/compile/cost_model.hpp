// Analytic cost model: scores a candidate mapping without spike traces.
//
// Mirrors the executor's event accounting (core/executor.cpp,
// docs/execution.md) but replaces recorded per-step spike counts with one assumed
// activity factor (spikes/neuron/step), so candidates can be ranked at
// compile time in microseconds instead of replaying presentations.  All
// energies come from the same technology tables (tech::DigitalCosts,
// tech::Memristor, tech::SramModel) the executor charges, so the estimate
// tracks the measured numbers to first order — it is a *ranking* signal,
// not a substitute for trace-driven execution.  It is the only analytic
// model: the compiler's cost pass, the search strategies' exploration
// score and the verifier's re-derivation all call estimate_cost.
#pragma once

#include "compile/program.hpp"
#include "core/mapper.hpp"
#include "noc/route.hpp"
#include "snn/topology.hpp"

namespace resparc::compile {

/// Spikes/neuron/step the cost model assumes, recorded in every
/// program's CostEstimate::activity (the verifier requires exactly this
/// value) and drawn by the search strategies' calibration trace.
inline constexpr double kAssumedActivity = 0.10;

/// Estimates per-timestep energy and pipelined cycles of `mapping` at a
/// uniform spike activity of kAssumedActivity, charging each boundary
/// transfer along its Ml-NoC route — the same table the executor replays
/// on, so the ranking cannot drift from the measured transport model.
CostEstimate estimate_cost(const snn::Topology& topology,
                           const core::Mapping& mapping,
                           const noc::RouteTable& routes);

}  // namespace resparc::compile
