// Unit tests for the IF neuron population (snn/neuron.hpp).
#include "snn/neuron.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace resparc::snn {
namespace {

TEST(IfNeuron, AccumulatesBelowThreshold) {
  IfPopulation pop(1, {.v_threshold = 1.0});
  std::vector<float> current{0.4f};
  std::vector<std::uint8_t> spikes(1);
  EXPECT_EQ(pop.step(current, spikes), 0u);
  EXPECT_EQ(spikes[0], 0);
  EXPECT_FLOAT_EQ(pop.membrane(0), 0.4f);
}

TEST(IfNeuron, FiresAtThreshold) {
  IfPopulation pop(1, {.v_threshold = 1.0});
  std::vector<float> current{1.0f};
  std::vector<std::uint8_t> spikes(1);
  EXPECT_EQ(pop.step(current, spikes), 1u);
  EXPECT_EQ(spikes[0], 1);
}

TEST(IfNeuron, SubtractiveResetKeepsRemainder) {
  IfPopulation pop(1, {.v_threshold = 1.0, .subtractive_reset = true});
  std::vector<float> current{1.3f};
  std::vector<std::uint8_t> spikes(1);
  pop.step(current, spikes);
  EXPECT_NEAR(pop.membrane(0), 0.3f, 1e-6f);
}

TEST(IfNeuron, HardResetDiscardsRemainder) {
  IfPopulation pop(1, {.v_threshold = 1.0, .subtractive_reset = false});
  std::vector<float> current{1.7f};
  std::vector<std::uint8_t> spikes(1);
  pop.step(current, spikes);
  EXPECT_FLOAT_EQ(pop.membrane(0), 0.0f);
}

TEST(IfNeuron, RateProportionalToDrive) {
  // Subtractive reset: long-run rate = drive / threshold.
  IfPopulation pop(1, {.v_threshold = 1.0});
  std::vector<float> current{0.25f};
  std::vector<std::uint8_t> spikes(1);
  int fired = 0;
  for (int t = 0; t < 400; ++t) {
    pop.step(current, spikes);
    fired += spikes[0];
  }
  EXPECT_EQ(fired, 100);
}

TEST(IfNeuron, LeakReducesMembrane) {
  IfPopulation pop(1, {.v_threshold = 10.0, .leak_per_step = 0.1});
  std::vector<float> current{0.3f};
  std::vector<std::uint8_t> spikes(1);
  pop.step(current, spikes);
  EXPECT_NEAR(pop.membrane(0), 0.2f, 1e-6f);
  // Leak cannot take the membrane negative.
  std::vector<float> none{0.0f};
  for (int t = 0; t < 10; ++t) pop.step(none, spikes);
  EXPECT_GE(pop.membrane(0), 0.0f);
}

TEST(IfNeuron, ResetClearsState) {
  IfPopulation pop(2, {.v_threshold = 5.0});
  std::vector<float> current{1.0f, 2.0f};
  std::vector<std::uint8_t> spikes(2);
  pop.step(current, spikes);
  pop.reset();
  EXPECT_FLOAT_EQ(pop.membrane(0), 0.0f);
  EXPECT_FLOAT_EQ(pop.membrane(1), 0.0f);
}

TEST(IfNeuron, IndependentNeurons) {
  IfPopulation pop(3, {.v_threshold = 1.0});
  std::vector<float> current{1.2f, 0.2f, 0.0f};
  std::vector<std::uint8_t> spikes(3);
  EXPECT_EQ(pop.step(current, spikes), 1u);
  EXPECT_EQ(spikes[0], 1);
  EXPECT_EQ(spikes[1], 0);
  EXPECT_EQ(spikes[2], 0);
}

TEST(IfNeuron, ShapeMismatchThrows) {
  IfPopulation pop(2, {});
  std::vector<float> current{1.0f};
  std::vector<std::uint8_t> spikes(2);
  EXPECT_THROW(pop.step(current, spikes), ShapeError);
}

TEST(IfNeuron, NegativeDriveNeverFires) {
  IfPopulation pop(1, {.v_threshold = 0.5});
  std::vector<float> current{-0.3f};
  std::vector<std::uint8_t> spikes(1);
  for (int t = 0; t < 20; ++t) EXPECT_EQ(pop.step(current, spikes), 0u);
  EXPECT_LT(pop.membrane(0), 0.0f);
}

TEST(IfNeuron, StepPackedMatchesStepBitForBit) {
  // Every specialisation of step_packed (leak or not, subtractive or hard
  // reset) against the byte step() over several steps: membranes bit for
  // bit, spikes, and the fired count.  Sizes straddle the 64-neuron word.
  const IfParams params[] = {
      {.v_threshold = 1.0},
      // v_reset above zero clamps the subtractive remainder v - vth.
      {.v_threshold = 1.0, .v_reset = 0.25},
      {.v_threshold = 0.75, .v_reset = 0.1, .subtractive_reset = false},
      {.v_threshold = 1.0, .leak_per_step = 0.125},
      {.v_threshold = 0.5, .v_reset = 0.2, .leak_per_step = 0.05},
      {.v_threshold = 1.0, .v_reset = -0.5, .subtractive_reset = false,
       .leak_per_step = 0.3},
  };
  Rng rng(15);
  for (const IfParams& p : params) {
    const float vth = static_cast<float>(p.v_threshold);
    const float leak = static_cast<float>(p.leak_per_step);
    for (const std::size_t n : {1u, 63u, 64u, 65u, 1000u}) {
      IfPopulation bytes_pop(n, p);
      IfPopulation packed_pop(n, p);
      std::vector<float> current(n);
      std::vector<std::uint8_t> spikes(n);
      SpikeVector packed(n);
      for (std::size_t i = 0; i < n; ++i) packed.set(i);  // stale bits
      for (int t = 0; t < 8; ++t) {
        for (float& c : current) {
          switch (rng.below(6)) {
            case 0: c = vth; break;          // exactly on threshold
            case 1: c = vth + leak; break;   // on threshold after leak
            case 2: c = leak; break;         // exactly the leak
            case 3: c = static_cast<float>(rng.uniform(-0.8, 0.0)); break;
            case 4: c = 0.0f; break;
            default: c = static_cast<float>(rng.uniform(0.0, 2.5)); break;
          }
        }
        const std::size_t want = bytes_pop.step(current, spikes);
        const std::size_t got = packed_pop.step_packed(current, packed);
        ASSERT_EQ(got, want) << "n " << n << " t " << t;
        const SpikeVector expect = SpikeVector::from_bytes(spikes);
        ASSERT_TRUE(std::equal(packed.words().begin(), packed.words().end(),
                               expect.words().begin(), expect.words().end()))
            << "n " << n << " t " << t;
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(std::bit_cast<std::uint32_t>(packed_pop.membrane(i)),
                    std::bit_cast<std::uint32_t>(bytes_pop.membrane(i)))
              << "n " << n << " t " << t << " neuron " << i;
      }
    }
  }
}

}  // namespace
}  // namespace resparc::snn
