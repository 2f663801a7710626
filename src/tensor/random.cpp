#include "tensor/random.hpp"

#include <cmath>

namespace dgnn {

namespace {

constexpr size_t kM = 156;  ///< offset of the word each twist step XORs in
constexpr uint64_t kTwistMatrix = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper bit of @p hi joined to the lower 31 of @p lo,
/// shifted, with the twist matrix XORed in when the joined word is odd.
inline uint64_t
Twist(uint64_t far, uint64_t hi, uint64_t lo)
{
    const uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kTwistMatrix);
}

}  // namespace

Mt19937_64::Mt19937_64(result_type seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
        const uint64_t prev = state_[i - 1];
        state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
}

void
Mt19937_64::Refill()
{
    uint64_t* x = state_.data();
    for (size_t i = 0; i < kN - kM; ++i) {
        x[i] = Twist(x[i + kM], x[i], x[i + 1]);
    }
    for (size_t i = kN - kM; i < kN - 1; ++i) {
        x[i] = Twist(x[i + kM - kN], x[i], x[i + 1]);
    }
    x[kN - 1] = Twist(x[kM - 1], x[kN - 1], x[0]);

    for (size_t i = 0; i < kN; ++i) {
        uint64_t z = x[i];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71d67fffeda60000ULL;
        z ^= (z << 37) & 0xfff7eee000000000ULL;
        z ^= z >> 43;
        block_[i] = z;
    }
    next_ = 0;
}

float
Rng::Uniform(float lo, float hi)
{
    DGNN_CHECK(std::isfinite(lo) && std::isfinite(hi) && lo <= hi, "Uniform range [",
               lo, ", ", hi, ") must be finite and ordered");
    std::uniform_real_distribution<float> dist(lo, hi);
    return dist(engine_);
}

float
Rng::Normal(float mean, float stddev)
{
    DGNN_CHECK(std::isfinite(mean) && stddev > 0.0f, "Normal needs a finite mean and a ",
               "positive stddev, got mean ", mean, ", stddev ", stddev);
    return normal_(engine_, std::normal_distribution<float>::param_type(mean, stddev));
}

int64_t
Rng::UniformInt(int64_t lo, int64_t hi)
{
    DGNN_CHECK(lo <= hi, "UniformInt range [", lo, ", ", hi, "] is empty");
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::Exponential(double rate)
{
    DGNN_CHECK(std::isfinite(rate) && rate > 0.0,
               "Exponential rate must be positive and finite, got ", rate);
    std::exponential_distribution<double> dist(rate);
    return dist(engine_);
}

bool
Rng::Bernoulli(double p)
{
    DGNN_CHECK(p >= 0.0 && p <= 1.0, "Bernoulli p must lie in [0, 1], got ", p);
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

Rng
Rng::Fork()
{
    return Rng(engine_());
}

namespace init {

Tensor
Uniform(Shape shape, Rng& rng, float lo, float hi)
{
    Tensor t(std::move(shape));
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        t.Data()[i] = rng.Uniform(lo, hi);
    }
    return t;
}

Tensor
Normal(Shape shape, Rng& rng, float stddev)
{
    Tensor t(std::move(shape));
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        t.Data()[i] = rng.Normal(0.0f, stddev);
    }
    return t;
}

Tensor
XavierUniform(int64_t fan_out, int64_t fan_in, Rng& rng)
{
    DGNN_CHECK(fan_out > 0 && fan_in > 0, "XavierUniform fans must be positive, got ",
               fan_out, " x ", fan_in);
    const float bound =
        std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
    return Uniform(Shape({fan_out, fan_in}), rng, -bound, bound);
}

}  // namespace init

}  // namespace dgnn
