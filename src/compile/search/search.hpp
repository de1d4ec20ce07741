// Search-based mapping strategies: simulated annealing and beam search
// over per-layer tile policy, MCA size, and NeuroCell alignment
// (docs/compile.md, "Search strategies").
//
// A candidate is a genome with one gene per layer — (array size, tile
// policy, alignment bit) — decoded into a full core::Mapping by retiling
// each layer at its gene's size and placing layers sequentially with the
// NeuroCell-boundary rules the verifier enforces (a NeuroCell never holds
// two array sizes).  Candidates are explored under the fast analytic
// oracle and promoted/accepted under the event-driven replay oracle
// (cost_oracle.hpp), so the winner is good where it counts: measured
// stall cycles, not just modelled averages.
//
// Determinism contract: every random draw comes from SplitMix64-derived
// streams of SearchOptions::seed, candidates are scored into pre-sized
// slots via parallel_for, and all reductions (Metropolis scan, elite
// updates, argmin ties) run sequentially in index order — the searched
// mapping is bit-identical for any thread count
// (tests/test_search.cpp pins 1/4/8 threads).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "compile/strategy.hpp"

namespace resparc::compile::search {

/// Knobs of both search strategies.  Defaults are the CI operating point:
/// modest enough that "auto" (which compiles all four strategies)
/// stays interactive, strong enough to beat greedy-pack at paper scale.
struct SearchOptions {
  /// Candidate MCA sizes the size move may pick from.  The strategies
  /// sanitise this before use: the config's own size is inserted when
  /// missing, values outside [8, 1024] are dropped, and the list is
  /// sorted/deduplicated.  Array sizes need not be powers of two — the
  /// fabric admits any size in [8, 1024] — and the intermediate points
  /// matter: the paper-scale CNN's best mixes tile pool layers at 224 and
  /// the big conv layer at 160, sizes a power-of-two palette cannot reach.
  std::vector<std::size_t> sizes = {32, 48, 64, 96, 128, 160, 192, 224, 256};
  /// Annealing rounds (one accepted move max per round) / beam depth.
  std::size_t rounds = 32;
  /// Mutations proposed per annealing round / beam width kept per depth.
  std::size_t proposals = 8;
  /// Elite genomes kept for replay promotion at the end of the search.
  /// The one-shot baselines (paper + greedy-pack genomes) always join the
  /// promotion set, so the winner never replay-ranks below them.
  std::size_t elites = 6;
  /// Timesteps of the synthetic calibration trace the replay oracle runs.
  std::size_t calibration_steps = 8;
  /// Replay-polish rounds: after promotion, coordinate descent over the
  /// winner's single-gene neighbourhood scored by the event-driven oracle
  /// (0 disables).  The analytic oracle is congestion-blind; this pass
  /// makes the final mapping a local optimum of the measured score.
  std::size_t polish = 3;
  /// Assumed spike activity for the analytic oracle + calibration trace.
  double activity = 0.10;
  /// Initial Metropolis temperature, as a fraction of the current score.
  double t0 = 0.08;
  /// Geometric cooling rate per round.
  double alpha = 0.90;
  /// Master seed; move/acceptance/trace streams derive via stream_seed.
  std::uint64_t seed = 7;
  /// Worker threads for candidate evaluation (0 = all hardware threads).
  std::size_t threads = 0;

  /// Defaults overridden from the environment: RESPARC_SEARCH_BUDGET caps
  /// `rounds` at min(rounds, budget) (CI pins it for bounded bench jobs),
  /// RESPARC_BENCH_SEED replaces `seed` (the bench seeding convention,
  /// bench/bench_util.hpp).  A value that is not a non-negative decimal
  /// integer in range (a sign, junk, overflow) is ignored.
  static SearchOptions from_env();
};

/// Simulated-annealing strategy ("anneal"): Metropolis over single-gene
/// mutations, analytic-oracle scored, replay-promoted elites.
std::unique_ptr<MappingStrategy> make_anneal_strategy();
/// Annealing strategy with explicit knobs, for budget-controlled searches
/// through Compiler::compile(topology, strategy).
std::unique_ptr<MappingStrategy> make_anneal_strategy(
    const SearchOptions& options);

/// Beam-search strategy ("beam"): exhaustive single-gene neighbourhoods,
/// deterministic beam of `proposals`, replay-promoted elites.
std::unique_ptr<MappingStrategy> make_beam_strategy();
/// Beam strategy with explicit knobs (see make_anneal_strategy overload).
std::unique_ptr<MappingStrategy> make_beam_strategy(
    const SearchOptions& options);

}  // namespace resparc::compile::search
