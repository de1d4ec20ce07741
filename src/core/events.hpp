// Per-timestep hardware event streams (docs/execution.md).
//
// The executor's RunReport aggregates event counters over a whole
// presentation; an EventStream keeps them resolved per timestep and per
// pipeline stage, built from the *actual* spikes of the replayed trace —
// stage 0 is the SRAM input broadcast, stage l+1 is network layer l's
// crossbar read + output transfer.  This is what the event-driven levers
// of paper section 3.2 act on: a stage whose slice carries no spike this
// step contributes zero reads and zero words, which the all-zero-input
// regression test pins down (tests/test_sparse_execution.cpp).
#pragma once

#include <cstddef>
#include <vector>

namespace resparc::core {

/// Exact event counts of one (timestep, stage) cell.
struct StepEvents {
  std::size_t active_rows = 0;    ///< crossbar row activations (spikes x arrays)
  std::size_t mca_reads = 0;      ///< MCA array reads performed
  std::size_t mca_skips = 0;      ///< array reads elided by the zero-check
  std::size_t words_sent = 0;     ///< 64-bit words crossing bus or switch
  std::size_t words_skipped = 0;  ///< all-zero words elided before transfer
  std::size_t neuron_fires = 0;   ///< spikes emitted by the stage's neurons

  StepEvents& operator+=(const StepEvents& other) {
    active_rows += other.active_rows;
    mca_reads += other.mca_reads;
    mca_skips += other.mca_skips;
    words_sent += other.words_sent;
    words_skipped += other.words_skipped;
    neuron_fires += other.neuron_fires;
    return *this;
  }

  /// True when the cell saw no event at all (a fully skipped stage).
  bool idle() const {
    return active_rows == 0 && mca_reads == 0 && words_sent == 0 &&
           neuron_fires == 0;
  }
};

/// Dense (timesteps x stages) grid of StepEvents for one or many replayed
/// presentations.  Stage 0 = input broadcast, stage l+1 = network layer l.
class EventStream {
 public:
  EventStream() = default;
  EventStream(std::size_t timesteps, std::size_t stages)
      : timesteps_(timesteps), stages_(stages),
        cells_(timesteps * stages) {}

  /// Recorded presentation length.
  std::size_t timesteps() const { return timesteps_; }
  /// Pipeline stages per timestep (network layers + the input broadcast).
  std::size_t stages() const { return stages_; }
  /// True for a default-constructed (shape-less) stream.
  bool empty() const { return cells_.empty(); }

  /// Mutable cell of (timestep t, stage).
  StepEvents& at(std::size_t t, std::size_t stage) {
    return cells_[t * stages_ + stage];
  }
  /// Cell of (timestep t, stage).
  const StepEvents& at(std::size_t t, std::size_t stage) const {
    return cells_[t * stages_ + stage];
  }

  /// Sum over all stages of one timestep.
  StepEvents step_total(std::size_t t) const;
  /// Sum over all timesteps of one stage.
  StepEvents stage_total(std::size_t stage) const;
  /// Sum over the whole grid.
  StepEvents total() const;

  /// Elementwise accumulation (presentation-order reduction of a
  /// multi-trace replay).  An empty stream adopts the other's shape;
  /// shapes must otherwise match — the executor always emits
  /// (T x layers+1).
  void merge(const EventStream& other);

 private:
  std::size_t timesteps_ = 0;
  std::size_t stages_ = 0;
  std::vector<StepEvents> cells_;
};

}  // namespace resparc::core
