#include "snn/neuron.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace resparc::snn {

std::size_t IfPopulation::step(std::span<const float> current,
                               std::span<std::uint8_t> spikes_out) {
  if (current.size() != membrane_.size() || spikes_out.size() != membrane_.size())
    throw ShapeError("IfPopulation::step: span size mismatch");
  const float vth = static_cast<float>(params_.v_threshold);
  const float vreset = static_cast<float>(params_.v_reset);
  const float leak = static_cast<float>(params_.leak_per_step);
  std::size_t fired = 0;
  for (std::size_t i = 0; i < membrane_.size(); ++i) {
    float v = membrane_[i] + current[i];
    if (leak > 0.0f) v = v > leak ? v - leak : 0.0f;
    if (v >= vth) {
      spikes_out[i] = 1;
      ++fired;
      if (params_.subtractive_reset) {
        v -= vth;
        if (v < vreset) v = vreset;
      } else {
        v = vreset;
      }
    } else {
      spikes_out[i] = 0;
    }
    membrane_[i] = v;
  }
  return fired;
}

namespace {

/// Packs 64 0/1 flag bytes into one word, flag j at bit j.  Each group
/// of eight flags is read as one integer, flag k at bit 8k, and one
/// multiply gathers flag k at bit 56 + k; no two partial products share
/// a bit, so nothing carries.
std::uint64_t pack_flags(const std::uint8_t* flags) {
  std::uint64_t word = 0;
  for (std::size_t g = 0; g < 8; ++g) {
    std::uint64_t bytes = 0;
    std::memcpy(&bytes, flags + 8 * g, sizeof bytes);
    word |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * g);
  }
  return word;
}

/// step_packed's loop with the leak and reset-mode choices resolved at
/// compile time.  Fire/no-fire is a select, not a branch, and the flags
/// go to a byte array, so the membrane update vectorizes; pack_flags
/// then turns each 64 flags into one output word.
template <bool kLeak, bool kSubtractive>
std::size_t step_words(float* __restrict membrane,
                       const float* __restrict current, std::size_t n,
                       float vth, float vreset, float leak, SpikeVector& out) {
  std::size_t fired = 0;
  std::uint8_t flags[64] = {};
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t chunk = std::min<std::size_t>(64, n - base);
    float* __restrict m = membrane + base;
    const float* __restrict c = current + base;
    for (std::size_t j = 0; j < chunk; ++j) {
      float v = m[j] + c[j];
      if constexpr (kLeak) {
        // step()'s `v > leak ? v - leak : 0`, with the subtraction made
        // unconditional so it is not a branch (GCC will not speculate a
        // conditional float op).  Same result: for leak > 0, v > leak
        // exactly when v - leak > 0, and NaN compares false both ways.
        const float leaked = v - leak;
        v = leaked > 0.0f ? leaked : 0.0f;
      }
      const bool fire = v >= vth;
      float reset = vreset;
      if constexpr (kSubtractive) {
        reset = v - vth;
        if (reset < vreset) reset = vreset;
      }
      m[j] = fire ? reset : v;
      flags[j] = fire;
    }
    if (chunk < 64) std::fill(flags + chunk, flags + 64, std::uint8_t{0});
    const std::uint64_t word = pack_flags(flags);
    out.set_word(base >> 6, word);
    fired += static_cast<std::size_t>(std::popcount(word));
  }
  return fired;
}

}  // namespace

std::size_t IfPopulation::step_packed(std::span<const float> current,
                                      SpikeVector& out) {
  if (current.size() != membrane_.size() || out.size() != membrane_.size())
    throw ShapeError("IfPopulation::step_packed: size mismatch");
  const float vth = static_cast<float>(params_.v_threshold);
  const float vreset = static_cast<float>(params_.v_reset);
  const float leak = static_cast<float>(params_.leak_per_step);
  float* const m = membrane_.data();
  const std::size_t n = membrane_.size();
  if (leak > 0.0f)
    return params_.subtractive_reset
               ? step_words<true, true>(m, current.data(), n, vth, vreset,
                                        leak, out)
               : step_words<true, false>(m, current.data(), n, vth, vreset,
                                         leak, out);
  return params_.subtractive_reset
             ? step_words<false, true>(m, current.data(), n, vth, vreset,
                                       leak, out)
             : step_words<false, false>(m, current.data(), n, vth, vreset,
                                        leak, out);
}

void IfPopulation::step_at(std::span<const std::uint32_t> indices,
                           std::span<const float> current,
                           std::vector<std::uint32_t>& fired_out,
                           std::vector<std::uint32_t>& hot_out) {
  if (current.size() != membrane_.size())
    throw ShapeError("IfPopulation::step_at: span size mismatch");
  const float vth = static_cast<float>(params_.v_threshold);
  const float vreset = static_cast<float>(params_.v_reset);
  for (const std::uint32_t i : indices) {
    // Same arithmetic as step(), minus the leak branch (callers guarantee
    // leak_per_step == 0, where skipping silent neurons is exact).
    float v = membrane_[i] + current[i];
    if (v >= vth) {
      fired_out.push_back(i);
      if (params_.subtractive_reset) {
        v -= vth;
        if (v < vreset) v = vreset;
      } else {
        v = vreset;
      }
      if (v >= vth) hot_out.push_back(i);
    }
    membrane_[i] = v;
  }
}

void IfPopulation::reset() {
  membrane_.assign(membrane_.size(), static_cast<float>(params_.v_reset));
}

}  // namespace resparc::snn
