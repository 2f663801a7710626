// Tests for the deterministic RNG and tensor initializers.

#include <array>
#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "tensor/random.hpp"

namespace dgnn {
namespace {

TEST(RngTest, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.Uniform(), b.Uniform());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        if (a.Uniform() == b.Uniform()) {
            ++same;
        }
    }
    EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRespectsRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.Uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(RngTest, UniformIntInclusive)
{
    Rng rng(8);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.UniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.UniformInt(3, 2), Error);
}

TEST(RngTest, NormalMoments)
{
    Rng rng(9);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.Normal(1.0f, 2.0f);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

// The first six Normal(0, 1) draws at seed 42. Generated by printing, with
// "%a", six calls of ONE std::normal_distribution<float> over
// std::mt19937_64(42) (libstdc++'s Marsaglia polar method). A distribution
// built per draw returns only the first variate of each pair, so its second
// value would be -0x1.25efc2p-1, this list's third.
constexpr std::array<float, 6> kSeed42Normals = {
    0x1.68f44p-1f, 0x1.4b37d2p+0f,  -0x1.25efc2p-1f,
    0x1.97876p-2f, -0x1.e81c8ap+0f, 0x1.1e59ap+0f};

TEST(RngTest, NormalsComeInPairs)
{
    Rng rng(42);
    for (const float expected : kSeed42Normals) {
        EXPECT_EQ(rng.Normal(), expected);
    }
}

TEST(RngTest, SavedNormalTakesTheParametersOfItsCall)
{
    // z1 is saved by the first call and scaled by the second call's
    // (mean, stddev); 2 * z1 is exact, so 5 + 2 * z1 rounds once either way.
    Rng rng(42);
    EXPECT_EQ(rng.Normal(0.0f, 1.0f), kSeed42Normals[0]);
    EXPECT_EQ(rng.Normal(5.0f, 2.0f), 5.0f + 2.0f * kSeed42Normals[1]);
    EXPECT_EQ(rng.Normal(-1.0f, 0.5f), -1.0f + 0.5f * kSeed42Normals[2]);
}

TEST(RngTest, CopyTakenMidPairReplaysTheSavedNormal)
{
    Rng rng(42);
    EXPECT_EQ(rng.Normal(), kSeed42Normals[0]);
    Rng copy = rng;
    for (size_t i = 1; i < kSeed42Normals.size(); ++i) {
        EXPECT_EQ(copy.Normal(), kSeed42Normals[i]) << "draw " << i;
    }
    for (size_t i = 1; i < kSeed42Normals.size(); ++i) {
        EXPECT_EQ(rng.Normal(), kSeed42Normals[i]) << "draw " << i;
    }
}

TEST(RngTest, ForkStartsWithoutASavedNormal)
{
    Rng rng(42);
    EXPECT_EQ(rng.Normal(), kSeed42Normals[0]);
    // The child is seeded by the parent's next engine draw, which a copy
    // of the parent reads too.
    Rng probe = rng;
    Rng expected(probe.Engine()());
    Rng child = rng.Fork();
    const float first = child.Normal();
    EXPECT_EQ(first, expected.Normal());
    EXPECT_NE(first, kSeed42Normals[1]);
    // The parent keeps its own saved variate across the fork.
    EXPECT_EQ(rng.Normal(), kSeed42Normals[1]);
}

// One instance of each distribution per engine, kept across calls, so the
// state a distribution carries between calls (the saved normal) counts.
struct Distributions {
    std::normal_distribution<float> normal{0.5f, 2.0f};
    std::exponential_distribution<double> exponential{3.0};
    std::bernoulli_distribution bernoulli{0.3};
    std::uniform_int_distribution<int64_t> small_int{-3, 9};
    // 2^63 + 1 values: about half of the raw draws are rejected.
    std::uniform_int_distribution<int64_t> rejecting_int{-(int64_t{1} << 62),
                                                         int64_t{1} << 62};
    std::uniform_real_distribution<float> real{-2.0f, 3.0f};
};

// Mt19937_64 must replay std::mt19937_64, the oracle here, draw for draw:
// every dataset, weight and request stream rests on that sequence.
TEST(RngTest, EngineMatchesStdMt19937_64)
{
    constexpr int kDraws = 12 * static_cast<int>(Mt19937_64::kN) + 7;
    const uint64_t seeds[] = {0, 1, 42, 5489, ~uint64_t{0}};
    for (const uint64_t seed : seeds) {
        SCOPED_TRACE(seed);
        Mt19937_64 engine(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < kDraws; ++i) {
            ASSERT_EQ(engine(), oracle()) << "draw " << i;
        }
    }

    // A copy taken in the middle of a block continues where it was taken.
    Mt19937_64 engine(7);
    std::mt19937_64 oracle(7);
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(engine(), oracle());
    }
    Mt19937_64 copy = engine;
    std::mt19937_64 oracle_copy = oracle;
    for (int i = 0; i < 2 * static_cast<int>(Mt19937_64::kN); ++i) {
        ASSERT_EQ(copy(), oracle_copy()) << "copy draw " << i;
        ASSERT_EQ(engine(), oracle()) << "draw " << i;
    }

    // Fork() seeds its child from the parent's next draw.
    Rng parent(42);
    std::mt19937_64 parent_oracle(42);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(parent.Engine()(), parent_oracle());
    }
    Rng child = parent.Fork();
    std::mt19937_64 child_oracle(parent_oracle());
    EXPECT_EQ(parent.Engine()(), parent_oracle());
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(child.Engine()(), child_oracle());
    }

    // Each distribution gives equal values over both engines.
    engine = Mt19937_64(2024);
    oracle = std::mt19937_64(2024);
    Distributions a;
    Distributions b;
    constexpr int kCalls = 2000;
    for (int i = 0; i < kCalls; ++i) {
        SCOPED_TRACE(i);
        ASSERT_EQ(a.normal(engine), b.normal(oracle));
        ASSERT_EQ(a.exponential(engine), b.exponential(oracle));
        ASSERT_EQ(a.bernoulli(engine), b.bernoulli(oracle));
        ASSERT_EQ(a.small_int(engine), b.small_int(oracle));
        ASSERT_EQ(a.rejecting_int(engine), b.rejecting_int(oracle));
        ASSERT_EQ(a.real(engine), b.real(oracle));
    }
    EXPECT_EQ(engine(), oracle());

    // The wide range does reject: kCalls calls take more than kCalls draws.
    std::mt19937_64 rejecting_oracle(2024);
    for (int i = 0; i < kCalls; ++i) {
        (void)a.rejecting_int(rejecting_oracle);
    }
    std::mt19937_64 one_draw_per_call(2024);
    one_draw_per_call.discard(kCalls);
    EXPECT_NE(rejecting_oracle, one_draw_per_call);
}

TEST(RngTest, RejectsBadDistributionParameters)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(16);
    EXPECT_THROW(rng.Normal(0.0f, 0.0f), Error);
    EXPECT_THROW(rng.Normal(0.0f, -1.0f), Error);
    EXPECT_THROW(rng.Normal(0.0f, nan), Error);
    EXPECT_THROW(rng.Normal(inf, 1.0f), Error);
    EXPECT_THROW(rng.Normal(nan, 1.0f), Error);
    EXPECT_THROW(rng.Uniform(1.0f, 0.0f), Error);
    EXPECT_THROW(rng.Uniform(-inf, 0.0f), Error);
    EXPECT_THROW(rng.Uniform(0.0f, nan), Error);
    EXPECT_THROW(rng.Bernoulli(-0.1), Error);
    EXPECT_THROW(rng.Bernoulli(1.5), Error);
    EXPECT_THROW(rng.Bernoulli(std::numeric_limits<double>::quiet_NaN()), Error);
    EXPECT_THROW(init::Normal(Shape({2, 2}), rng, 0.0f), Error);
    EXPECT_THROW(rng.Exponential(0.0), Error);
    EXPECT_THROW(rng.Exponential(-1.0), Error);
    EXPECT_THROW(rng.Exponential(std::numeric_limits<double>::infinity()), Error);
    EXPECT_THROW(rng.Exponential(std::numeric_limits<double>::quiet_NaN()), Error);
    // The edges of each range are valid.
    EXPECT_EQ(rng.Uniform(2.0f, 2.0f), 2.0f);
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ExponentialPositiveWithMean)
{
    Rng rng(10);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.Exponential(2.0);
        EXPECT_GT(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.05);
    EXPECT_THROW(rng.Exponential(0.0), Error);
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(11);
    int heads = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        heads += rng.Bernoulli(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.03);
}

TEST(RngTest, ForkProducesIndependentStream)
{
    Rng a(12);
    Rng child = a.Fork();
    // Forked generator should not mirror the parent.
    int same = 0;
    for (int i = 0; i < 50; ++i) {
        if (a.Uniform() == child.Uniform()) {
            ++same;
        }
    }
    EXPECT_LT(same, 5);
}

TEST(InitTest, UniformTensorWithinBounds)
{
    Rng rng(13);
    const Tensor t = init::Uniform(Shape({20, 20}), rng, -0.5f, 0.5f);
    EXPECT_GE(t.NumElements(), 1);
    for (int64_t i = 0; i < t.NumElements(); ++i) {
        EXPECT_GE(t.At(i), -0.5f);
        EXPECT_LT(t.At(i), 0.5f);
    }
}

TEST(InitTest, NormalTensorFiniteWithSpread)
{
    Rng rng(14);
    const Tensor t = init::Normal(Shape({50, 10}), rng, 0.2f);
    EXPECT_TRUE(t.AllFinite());
    EXPECT_GT(t.AbsMax(), 0.0f);
    EXPECT_LT(std::fabs(t.Mean()), 0.05);
}

TEST(InitTest, XavierBound)
{
    Rng rng(15);
    const int64_t fan_out = 30;
    const int64_t fan_in = 20;
    const Tensor w = init::XavierUniform(fan_out, fan_in, rng);
    EXPECT_EQ(w.GetShape(), Shape({fan_out, fan_in}));
    const float bound = std::sqrt(6.0f / (fan_in + fan_out));
    EXPECT_LE(w.AbsMax(), bound);
    EXPECT_THROW(init::XavierUniform(0, 5, rng), Error);
}

TEST(InitTest, DeterministicAcrossRuns)
{
    Rng a(99);
    Rng b(99);
    const Tensor ta = init::Normal(Shape({8, 8}), a);
    const Tensor tb = init::Normal(Shape({8, 8}), b);
    for (int64_t i = 0; i < ta.NumElements(); ++i) {
        EXPECT_EQ(ta.At(i), tb.At(i));
    }
}

}  // namespace
}  // namespace dgnn
