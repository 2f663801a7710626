#pragma once

/// @file
/// Deterministic random number generation and tensor initializers.
/// Every stochastic component in dgnn (weights, datasets, samplers) takes an
/// explicit Rng so whole experiments replay bit-for-bit.

#include <cstdint>
#include <random>

#include "tensor/tensor.hpp"

namespace dgnn {

/// Seeded pseudo-random source (mt19937_64 under the hood).
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

    std::mt19937_64& Engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
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
