#pragma once

/// @file
/// Deterministic random number generation and tensor initializers.
/// Every stochastic component in dgnn (weights, datasets, samplers) takes an
/// explicit Rng so whole experiments replay bit-for-bit.

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <random>

#include "tensor/tensor.hpp"

namespace dgnn {

/// The 64-bit Mersenne Twister: the seeding, twist and tempering of
/// std::mt19937_64, so it yields that engine's exact sequence for every
/// seed, through every std distribution. It is faster in two ways.
/// Refill() twists with a mask instead of libstdc++'s branch on each state
/// word's low bit, which a CPU mispredicts about half the time. It also
/// tempers all 312 words in one pass into a block, so a draw is a bounds
/// check and a load.
class Mt19937_64 {
  public:
    using result_type = uint64_t;

    static constexpr size_t kN = 312;  ///< state words, one output block

    explicit Mt19937_64(result_type seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    result_type operator()()
    {
        if (next_ == kN) {
            Refill();
        }
        return block_[next_++];
    }

  private:
    /// Twists the whole state once and tempers it into block_.
    void Refill();

    std::array<uint64_t, kN> state_{};
    std::array<uint64_t, kN> block_{};  ///< tempered output of the last twist
    size_t next_ = kN;  ///< next block_ index; kN = drawn out
};

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

/// Seeded pseudo-random source over Mt19937_64. Each draw goes through a
/// std distribution, so a seed gives the values std::mt19937_64 would.
class Rng {
  public:
    explicit Rng(uint64_t seed) : engine_(seed) {}

    /// Uniform float in [lo, hi).
    float Uniform(float lo = 0.0f, float hi = 1.0f);

    /// Standard normal float times @p stddev plus @p mean. Normals come in
    /// pairs: the polar method draws two standard variates at once, and the
    /// second is kept for the next call, which scales it by its own
    /// @p mean and @p stddev. A copy of an Rng keeps the saved variate; a
    /// Fork() starts without one.
    float Normal(float mean = 0.0f, float stddev = 1.0f);

    /// Uniform integer in [lo, hi] inclusive.
    int64_t UniformInt(int64_t lo, int64_t hi);

    /// Exponentially distributed inter-arrival gap with the given rate.
    double Exponential(double rate);

    /// Bernoulli draw with probability @p p of true.
    bool Bernoulli(double p);

    /// Derives an independent child generator (for parallel-safe seeding).
    Rng Fork();

    Mt19937_64& Engine() { return engine_; }

  private:
    Mt19937_64 engine_;
    std::normal_distribution<float> normal_;  ///< holds the saved variate
};

namespace init {

/// Tensor with iid U(lo, hi) entries.
Tensor Uniform(Shape shape, Rng& rng, float lo = -0.1f, float hi = 0.1f);

/// Tensor with iid N(0, stddev) entries.
Tensor Normal(Shape shape, Rng& rng, float stddev = 1.0f);

/// Xavier/Glorot uniform init for a [out, in] weight matrix.
Tensor XavierUniform(int64_t fan_out, int64_t fan_in, Rng& rng);

}  // namespace init

}  // namespace dgnn
