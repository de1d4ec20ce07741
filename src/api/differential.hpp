// Differential oracle of the execution stack (docs/execution.md).
//
// One fuzz case (snn/fuzz.hpp) is simulated by the engine behind
// snn::Simulator::run (snn/sparse_engine.hpp) and by the naive dense
// reference (snn::simulate_reference), and the results are compared
// exactly: spike-for-spike over the full trace, on every output count and
// on the total spike tally.  The engine runs the case twice through one
// reused simulator — the second time with every layer's full-drive
// scatter partitioned over the global thread pool — so stale state after
// reset() and partition-order bugs are caught too.
//
// check_differential returns the first divergence as a human-readable
// string naming the seed, the run compared and the field that split, so a
// fuzz failure is directly actionable.  tests/test_differential.cpp
// sweeps random seeds plus the regression corpus
// (tests/data/corpus/seeds.txt); tools/fuzz_topology drives bulk hunts.
#pragma once

#include <string>

#include "snn/fuzz.hpp"

namespace resparc::api {

/// Outcome of one differential run.
struct DifferentialResult {
  bool ok = true;      ///< every compared path agreed exactly
  std::string detail;  ///< first divergence ("seed=.. reference vs engine
                       ///< .."); empty when ok
};

/// Runs `c` through the engine and the reference and compares exactly.
/// Deterministic: the same case always produces the same verdict.
DifferentialResult check_differential(const snn::FuzzCase& c);

}  // namespace resparc::api
