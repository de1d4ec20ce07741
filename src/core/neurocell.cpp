#include "core/neurocell.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "tech/sram.hpp"

namespace resparc::core {

using snn::LayerKind;
using snn::SpikeVector;

NeuroCell::NeuroCell(ResparcConfig config) : config_(std::move(config)) {
  config_.validate();
  const std::size_t n_switches = config_.switches_per_neurocell();
  switches_.reserve(n_switches);
  for (std::size_t s = 0; s < n_switches; ++s)
    switches_.emplace_back(static_cast<std::uint16_t>(s), config_.event_driven);
}

void NeuroCell::load(const snn::Network& net) {
  mpes_.clear();
  plan_.clear();
  const std::size_t N = config_.mca_size;
  const tech::Memristor device{config_.technology.memristor};

  for (std::size_t l = 0; l < net.topology().layer_count(); ++l) {
    const auto& li = net.topology().layers()[l];
    require(li.spec.kind == LayerKind::kDense,
            "behavioral NeuroCell maps dense layers only");
    const Matrix& w = net.layer(l).weights;
    float scale = 0.0f;
    for (float v : w.flat()) scale = std::max(scale, std::abs(v));

    const std::size_t F = li.fan_in;
    const std::size_t U = li.neurons;
    LayerPlan lp;
    lp.neurons = U;

    for (std::size_t col0 = 0; col0 < U; col0 += N) {
      const std::size_t cols = std::min(N, U - col0);
      ColGroup group;
      group.col_offset = col0;
      group.cols = cols;

      // Row slices of this column group, packed mcas_per_mpe per mPE; the
      // first mPE hosts the neurons, later ones are CCU helpers.
      const std::size_t slices = (F + N - 1) / N;
      std::size_t assigned = 0;
      while (assigned < slices) {
        if (mpes_.size() >= config_.mpes_per_neurocell())
          throw MappingError("network exceeds NeuroCell capacity (" +
                             std::to_string(config_.mpes_per_neurocell()) +
                             " mPEs)");
        mpes_.emplace_back(N, config_.mcas_per_mpe, device);
        Mpe& mpe = mpes_.back();
        const std::size_t mpe_index = mpes_.size() - 1;
        const std::size_t chunk =
            std::min(config_.mcas_per_mpe, slices - assigned);
        for (std::size_t s = 0; s < chunk; ++s) {
          const std::size_t row0 = (assigned + s) * N;
          const std::size_t rows = std::min(N, F - row0);
          Matrix slice(rows, cols);
          for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
              slice(r, c) = w(row0 + r, col0 + c);
          mpe.add_mca(slice, row0, scale);
        }
        if (assigned == 0) {
          mpe.host_neurons(cols, net.layer(l).neuron);
          group.host = mpe_index;
        } else {
          group.helpers.push_back(mpe_index);
        }
        assigned += chunk;
      }
      lp.groups.push_back(std::move(group));
    }
    plan_.push_back(std::move(lp));
  }
}

SpikeVector NeuroCell::step(const SpikeVector& input) {
  require(!plan_.empty(), "NeuroCell: no network loaded");
  SpikeVector current = input;

  for (std::size_t l = 0; l < plan_.size(); ++l) {
    const LayerPlan& lp = plan_[l];
    SpikeVector out(lp.neurons);

    for (const ColGroup& g : lp.groups) {
      Mpe& host = mpes_[g.host];
      host.begin_step();
      host.integrate_local(current);
      for (std::size_t h : g.helpers) {
        Mpe& helper = mpes_[h];
        helper.begin_step();
        helper.integrate_local(current);
        helper.send_currents();
        ++extra_.ccu_transfers;
        host.integrate_external(helper.currents().subspan(0, g.cols));
      }
      const SpikeVector spikes = host.fire();
      for (std::size_t i = 0; i < spikes.size(); ++i)
        if (spikes.get(i)) out.set(g.col_offset + i);
    }

    // Forward the layer's spikes through the switch fabric as 64-bit
    // flits; zero flits are suppressed by the switches' zero-check.
    const auto words = out.words();
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
      SpikePacket packet;
      packet.dst_switch =
          static_cast<std::uint16_t>(wi % std::max<std::size_t>(1, switches_.size()));
      packet.dst_mpe = static_cast<std::uint16_t>(l + 1);
      packet.payload = words[wi];
      ++extra_.packets_sent;
      ProgrammableSwitch& sw = switches_[packet.dst_switch];
      if (sw.offer(packet)) (void)sw.deliver();
    }
    current = std::move(out);
  }
  return current;
}

void NeuroCell::reset() {
  for (auto& mpe : mpes_) mpe.reset();
  for (auto& sw : switches_) sw.reset_counters();
  extra_ = NeuroCellCounters{};
}

NeuroCellCounters NeuroCell::counters() const {
  NeuroCellCounters c = extra_;
  for (const auto& mpe : mpes_) {
    c.mca_reads += mpe.counters().mca_reads;
    c.mca_skips += mpe.counters().mca_skips;
    c.neuron_fires += mpe.counters().neuron_fires;
  }
  for (const auto& sw : switches_) {
    c.packets_dropped += sw.counters().dropped_zero;
  }
  return c;
}

NeuroCellMetrics neurocell_metrics(const ResparcConfig& config) {
  config.validate();
  const tech::DigitalCosts& d = config.technology.digital;
  NeuroCellMetrics m;
  m.mpe_count = config.mpes_per_neurocell();
  m.switch_count = config.switches_per_neurocell();
  m.mcas_per_mpe = config.mcas_per_mpe;
  m.frequency_mhz = config.technology.resparc_clock_mhz;

  const tech::SramModel sram{
      {.capacity_bytes = config.input_sram_bytes, .word_bits = 64}};

  m.area_mm2 = static_cast<double>(m.mpe_count) * d.area_per_mpe_mm2 +
               static_cast<double>(m.switch_count) * d.area_per_switch_mm2 +
               d.area_gcu_mm2 + sram.area_mm2();
  m.gate_count = static_cast<double>(m.mpe_count) * d.gates_per_mpe +
                 static_cast<double>(m.switch_count) * d.gates_per_switch +
                 d.gates_gcu;

  // Peak dynamic power: every MCA sequenced each cycle (control + iBUFF
  // read) and every switch forwarding one flit per cycle, at f_clk.
  const double mca_event_pj =
      d.mca_control_pj +
      static_cast<double>(config.mca_size) * d.buffer_bit_pj;
  const double per_cycle_pj =
      static_cast<double>(config.mcas_per_neurocell()) * mca_event_pj +
      static_cast<double>(m.switch_count) * d.switch_flit_pj +
      d.gcu_event_pj;
  // pJ * MHz = uW; convert to mW.
  m.power_mw = per_cycle_pj * m.frequency_mhz * 1e-3;
  return m;
}

}  // namespace resparc::core
