#include "tensor/random.hpp"

#include <cmath>

namespace dgnn {

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
    DGNN_CHECK(rate > 0.0, "Exponential rate must be positive, got ", rate);
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
