// The simulation engine behind snn::Simulator::run (docs/execution.md).
//
// RESPARC skips work on silent inputs with a zero-check on every switch
// and MCA group (paper section 3.2).  This engine is the executable form
// of that lever: each layer, on each timestep, picks one of two steps by
// the number of input events —
//
//   * a STAMPED step while the events' combined fan-out stays below the
//     population: the previous layer's spikes are decoded to an
//     ascending AER index list, each event is scattered through the
//     layer's connectivity stamping the output columns it touches, and
//     only touched columns — plus "hot" neurons whose membrane stayed at
//     or above threshold after a subtractive reset — are stepped
//     (IfPopulation::step_at).  Everything else is provably inert when
//     leak_per_step == 0, and only the touched entries of the current
//     buffer are cleared afterwards;
//   * a FULL-DRIVE step once the fan-out covers the population anyway:
//     the events scatter straight from the input's 64-bit spike words
//     (snn/scatter.hpp packed overload), partitioned over a ThreadPool
//     when set_pool() is on, and IfPopulation::step_packed writes the
//     layer's spikes directly into its output words.
//
// The rule is structural (fan-out bound vs population), not a tuned
// constant.  Both steps perform the same additions in the same order as
// the dense reference simulation (snn::simulate_reference), so traces are
// bit-for-bit identical to it (tests/test_differential.cpp,
// tests/test_sparse_execution.cpp).  Layers outside the inert regime
// (leak > 0, or a non-positive threshold) step their whole population
// every step while keeping the stamped accumulation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "snn/network.hpp"
#include "snn/trace.hpp"

namespace resparc::snn {

/// Event-driven executor of one presentation at a time.  The engine
/// snapshots the network's neuron parameters at construction; the
/// network must outlive it.
class SparseEngine {
 public:
  /// Snapshots `net`'s neuron parameters and sizes the scratch state.
  explicit SparseEngine(const Network& net);

  // The pre-built pool job captures `this`.
  SparseEngine(const SparseEngine&) = delete;
  SparseEngine& operator=(const SparseEngine&) = delete;

  /// Returns the engine to its just-constructed state (zero membranes,
  /// no pending spikes) without releasing any scratch storage — the
  /// allocation-free way to reuse one engine across presentations.
  /// Bit-for-bit equivalent to constructing a fresh engine.
  void reset();

  /// Spreads the scatter of full-drive steps on layers with at least
  /// `min_outputs` neurons over `parts` output partitions on `pool`
  /// (0 = pool width, capped at it; nullptr or one part = serial).  Results are bit-for-bit
  /// identical for any setting: each output element is written by one
  /// partition in the serial order.
  void set_pool(ThreadPool* pool, std::size_t parts, std::size_t min_outputs);

  /// Runs one timestep of layer `l` on `in`, the previous layer's spikes
  /// (or the encoded input for layer 0), carrying `events` ==
  /// in.count() spikes — known to every caller (last_fired(l - 1), or
  /// the encoder's count), so the engine never re-counts.  The returned
  /// vector (this layer's spikes) stays valid until the next step_layer
  /// call for the same layer.
  const SpikeVector& step_layer(std::size_t l, const SpikeVector& in,
                                std::size_t events);

  /// Spikes emitted by layer `l` in its most recent step.
  std::size_t last_fired(std::size_t l) const { return state_[l].fired; }

 private:
  struct LayerState {
    IfPopulation pop;                 ///< membranes (engine-owned)
    std::vector<float> current;       ///< all-zero between steps
    /// Conv layers' position-major full-drive scratch (snn/scatter.hpp),
    /// all-zero between steps; empty for other kinds.
    std::vector<float> scratch;
    std::vector<std::uint32_t> touched;  ///< columns written this step
    std::vector<std::uint32_t> stamp;    ///< epoch marks backing `touched`
    std::vector<std::uint32_t> step_set;  ///< touched ∪ hot, deduplicated
    std::vector<std::uint32_t> hot;      ///< membrane >= vth after reset
    SpikeVector out;                  ///< spikes of the latest step
    std::size_t fired = 0;            ///< popcount of `out`
    /// `hot` is still to be derived from `out` (the latest step was
    /// full-drive; see step_layer).
    bool hot_in_out = false;
    std::uint32_t epoch = 0;
    bool all_touched = false;  ///< dense layer: any event drives every column
    bool dense_fallback = false;  ///< leak > 0 or vth <= 0: step everyone
    /// Upper bound on columns one event can touch (kernel fan-out): a
    /// step whose events x touches cover the population is full-drive.
    std::size_t touches_per_event = 0;

    LayerState(std::size_t n, const IfParams& params)
        : pop(n, params), current(n, 0.0f), stamp(n, 0), out(n) {}
  };

  /// Scatters `in_active` through conv/pool layer `l`'s connectivity
  /// into the current buffer, stamping every column it writes.
  void accumulate_stamped(std::size_t l,
                          std::span<const std::uint32_t> in_active,
                          LayerState& st);

  /// Full-drive scatter of `in`'s packed words into layer `l`'s current
  /// buffer — partitioned over the pool when enabled, serial otherwise.
  void scatter_full(std::size_t l, const SpikeVector& in, LayerState& st);

  const Network& net_;
  std::vector<LayerState> state_;
  std::vector<std::uint32_t> in_active_;  ///< AER list of a stamped input
  std::vector<std::uint32_t> fired_;      ///< step_at output scratch

  // Within-trace parallelism (set_pool).
  ThreadPool* pool_ = nullptr;
  std::size_t pool_parts_ = 1;
  std::size_t pool_min_outputs_ = 0;
  /// Pre-built pool job reading job_*; reusing one std::function keeps
  /// the pooled steady state allocation-free.
  std::function<void(std::size_t, std::size_t)> pool_fn_;
  std::size_t job_layer_ = 0;            ///< layer being scattered
  const SpikeVector* job_in_ = nullptr;  ///< its input spikes
};

}  // namespace resparc::snn
