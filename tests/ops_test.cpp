// Unit + property tests for tensor math kernels.

#include <cmath>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "nn/linear.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace dgnn {
namespace {

Tensor
Mat(std::vector<float> v, int64_t rows, int64_t cols)
{
    return Tensor(Shape({rows, cols}), std::move(v));
}

TEST(MatMulTest, HandComputed2x2)
{
    const Tensor a = Mat({1, 2, 3, 4}, 2, 2);
    const Tensor b = Mat({5, 6, 7, 8}, 2, 2);
    const Tensor c = ops::MatMul(a, b);
    EXPECT_FLOAT_EQ(c.At(0, 0), 19.0f);
    EXPECT_FLOAT_EQ(c.At(0, 1), 22.0f);
    EXPECT_FLOAT_EQ(c.At(1, 0), 43.0f);
    EXPECT_FLOAT_EQ(c.At(1, 1), 50.0f);
}

TEST(MatMulTest, RectangularShapes)
{
    const Tensor a(Shape({2, 3}), 1.0f);
    const Tensor b(Shape({3, 4}), 2.0f);
    const Tensor c = ops::MatMul(a, b);
    EXPECT_EQ(c.GetShape(), Shape({2, 4}));
    EXPECT_FLOAT_EQ(c.At(0, 0), 6.0f);
}

TEST(MatMulTest, IdentityIsNeutral)
{
    Rng rng(1);
    const Tensor a = init::Normal(Shape({5, 5}), rng);
    const Tensor c = ops::MatMul(a, Tensor::Eye(5));
    for (int64_t i = 0; i < a.NumElements(); ++i) {
        EXPECT_FLOAT_EQ(c.At(i), a.At(i));
    }
}

TEST(MatMulTest, DimensionMismatchThrows)
{
    const Tensor a(Shape({2, 3}));
    const Tensor b(Shape({4, 2}));
    EXPECT_THROW(ops::MatMul(a, b), Error);
}

TEST(MatMulTest, TransposedMatchesExplicitTranspose)
{
    Rng rng(2);
    const Tensor a = init::Normal(Shape({4, 6}), rng);
    const Tensor b = init::Normal(Shape({5, 6}), rng);
    const Tensor direct = ops::MatMulTransposed(a, b);
    const Tensor via_t = ops::MatMul(a, ops::Transpose(b));
    ASSERT_EQ(direct.GetShape(), via_t.GetShape());
    for (int64_t i = 0; i < direct.NumElements(); ++i) {
        EXPECT_NEAR(direct.At(i), via_t.At(i), 1e-4f);
    }
}

/// The kernel's contract as a plain loop: one double accumulator per output,
/// summed over kk in ascending order.
Tensor
ScalarMatMulTransposed(const Tensor& a, const Tensor& b)
{
    const int64_t m = a.Dim(0);
    const int64_t k = a.Dim(1);
    const int64_t n = b.Dim(0);
    Tensor c(Shape({m, n}));
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int64_t kk = 0; kk < k; ++kk) {
                acc += static_cast<double>(a.At(i, kk)) *
                       static_cast<double>(b.At(j, kk));
            }
            c.At(i, j) = static_cast<float>(acc);
        }
    }
    return c;
}

/// Normal values of both signs with every third element an exact zero.
Tensor
SignedWithZeros(Shape shape, Rng& rng)
{
    Tensor t = init::Normal(std::move(shape), rng);
    for (int64_t i = 0; i < t.NumElements(); i += 3) {
        t.At(i) = 0.0f;
    }
    return t;
}

/// SignedWithZeros [m,k], plus (for k >= 4) a huge value at column 1 that
/// column k - 2 negates; with equal B entries at those columns the huge
/// products cancel exactly.
Tensor
CancellingInput(int64_t m, int64_t k, Rng& rng)
{
    Tensor x = SignedWithZeros(Shape({m, k}), rng);
    for (int64_t i = 0; i < m && k >= 4; ++i) {
        x.At(i, 1) = std::ldexp(1.0f + rng.Uniform(), 40);
        x.At(i, k - 2) = -x.At(i, 1);
    }
    return x;
}

/// Compares two same-shape tensors bit for bit.
bool
BitIdentical(const Tensor& got, const Tensor& want)
{
    return got.GetShape() == want.GetShape() &&
           (got.NumElements() == 0 ||
            std::memcmp(got.Data(), want.Data(),
                        sizeof(float) * static_cast<size_t>(got.NumElements())) == 0);
}

TEST(MatMulTest, TransposedIsBitIdenticalToScalarReference)
{
    // n covers an empty B, partial first panels, exact panels and partial
    // last panels; odd m covers the one-row tail. For k >= 4 a huge product
    // at kk = 1 is cancelled exactly at kk = k - 2, so the float result keeps
    // the rounding of the double partial sums in between: a reordered sum
    // flips low bits here.
    Rng rng(11);
    for (const int64_t m : {0, 1, 2, 3, 5}) {
        for (const int64_t n : {0, 1, 3, 4, 7, 8, 9, 17, 64}) {
            for (const int64_t k : {0, 1, 5, 172}) {
                const Tensor a = CancellingInput(m, k, rng);
                Tensor b = SignedWithZeros(Shape({n, k}), rng);
                for (int64_t j = 0; j < n && k >= 4; ++j) {
                    b.At(j, 1) = rng.Normal();
                    b.At(j, k - 2) = b.At(j, 1);
                }
                const Tensor want = ScalarMatMulTransposed(a, b);
                const ops::PackedRhs packed = ops::PackRhs(b);
                EXPECT_EQ(packed.Rows(), n);
                EXPECT_EQ(packed.Cols(), k);
                EXPECT_TRUE(BitIdentical(ops::MatMulTransposed(a, packed), want))
                    << "packed m=" << m << " n=" << n << " k=" << k;
                EXPECT_TRUE(BitIdentical(ops::MatMulTransposed(a, b), want))
                    << "unpacked m=" << m << " n=" << n << " k=" << k;
            }
        }
    }
}

TEST(MatMulTest, PackedInnerDimensionMismatchThrows)
{
    const ops::PackedRhs packed = ops::PackRhs(Tensor(Shape({4, 3})));
    EXPECT_THROW(ops::MatMulTransposed(Tensor(Shape({2, 4})), packed), Error);
    EXPECT_THROW(ops::MatMulTransposed(Tensor(Shape({2})), packed), Error);
    EXPECT_THROW(ops::PackRhs(Tensor(Shape({3}))), Error);
}

TEST(LinearForwardTest, MatchesScalarReferencePlusBias)
{
    Rng rng(12);
    const std::vector<std::pair<int64_t, int64_t>> in_out = {
        {172, 64}, {64, 64}, {5, 9}, {32, 20}, {1, 1}};
    for (const auto& [in, out] : in_out) {
        const nn::Linear layer(in, out, rng);
        for (const int64_t m : {0, 1, 2, 3, 10}) {
            const Tensor x = SignedWithZeros(Shape({m, in}), rng);
            const Tensor want = ScalarMatMulTransposed(x, layer.Weight());
            Tensor want_biased(want.GetShape());
            for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = 0; j < out; ++j) {
                    want_biased.At(i, j) = want.At(i, j) + layer.Bias().At(j);
                }
            }
            EXPECT_TRUE(BitIdentical(layer.Forward(x), want_biased))
                << "m=" << m << " in=" << in << " out=" << out;
        }
    }
}

TEST(LinearForwardTest, EmptyBiasSkipsAdd)
{
    Rng rng(13);
    const nn::Linear layer(172, 17, rng, /*with_bias=*/false);
    EXPECT_EQ(layer.Bias().NumElements(), 0);
    const Tensor x = SignedWithZeros(Shape({3, 172}), rng);
    EXPECT_TRUE(BitIdentical(layer.Forward(x), ScalarMatMulTransposed(x, layer.Weight())));
}

TEST(ElementwiseTest, AddSubMul)
{
    const Tensor a = Tensor::FromVector({1, 2, 3});
    const Tensor b = Tensor::FromVector({4, 5, 6});
    EXPECT_FLOAT_EQ(ops::Add(a, b).At(1), 7.0f);
    EXPECT_FLOAT_EQ(ops::Sub(a, b).At(1), -3.0f);
    EXPECT_FLOAT_EQ(ops::Mul(a, b).At(1), 10.0f);
    EXPECT_THROW(ops::Add(a, Tensor(Shape({2}))), Error);
}

TEST(ElementwiseTest, AddRowBroadcast)
{
    const Tensor m(Shape({2, 3}), 1.0f);
    const Tensor r = Tensor::FromVector({1, 2, 3});
    const Tensor y = ops::AddRowBroadcast(m, r);
    EXPECT_FLOAT_EQ(y.At(0, 0), 2.0f);
    EXPECT_FLOAT_EQ(y.At(1, 2), 4.0f);
    EXPECT_THROW(ops::AddRowBroadcast(m, Tensor(Shape({2}))), Error);
}

TEST(ActivationTest, ReluClamps)
{
    const Tensor y = ops::Relu(Tensor::FromVector({-1.0f, 0.0f, 2.0f}));
    EXPECT_FLOAT_EQ(y.At(0), 0.0f);
    EXPECT_FLOAT_EQ(y.At(1), 0.0f);
    EXPECT_FLOAT_EQ(y.At(2), 2.0f);
}

TEST(ActivationTest, SigmoidRangeAndMidpoint)
{
    const Tensor y = ops::Sigmoid(Tensor::FromVector({0.0f, 10.0f, -10.0f}));
    EXPECT_FLOAT_EQ(y.At(0), 0.5f);
    EXPECT_GT(y.At(1), 0.99f);
    EXPECT_LT(y.At(2), 0.01f);
}

TEST(ActivationTest, TanhOddSymmetry)
{
    const Tensor y = ops::Tanh(Tensor::FromVector({1.5f, -1.5f}));
    EXPECT_NEAR(y.At(0), -y.At(1), 1e-6f);
}

TEST(ActivationTest, GeluApproximation)
{
    const Tensor y = ops::Gelu(Tensor::FromVector({0.0f, 3.0f, -3.0f}));
    EXPECT_FLOAT_EQ(y.At(0), 0.0f);
    EXPECT_NEAR(y.At(1), 3.0f, 0.02f);   // ~identity for large positive
    EXPECT_NEAR(y.At(2), 0.0f, 0.02f);   // ~zero for large negative
}

TEST(SoftmaxTest, RowsSumToOne)
{
    Rng rng(3);
    const Tensor x = init::Normal(Shape({6, 9}), rng, 3.0f);
    const Tensor y = ops::SoftmaxRows(x);
    for (int64_t i = 0; i < 6; ++i) {
        double row_sum = 0.0;
        for (int64_t j = 0; j < 9; ++j) {
            EXPECT_GE(y.At(i, j), 0.0f);
            row_sum += y.At(i, j);
        }
        EXPECT_NEAR(row_sum, 1.0, 1e-5);
    }
}

TEST(SoftmaxTest, StableForLargeInputs)
{
    const Tensor x = Mat({1000.0f, 1001.0f}, 1, 2);
    const Tensor y = ops::SoftmaxRows(x);
    EXPECT_TRUE(y.AllFinite());
    EXPECT_GT(y.At(0, 1), y.At(0, 0));
}

TEST(ConcatTest, ColsAndRows)
{
    const Tensor a(Shape({2, 2}), 1.0f);
    const Tensor b(Shape({2, 3}), 2.0f);
    const Tensor c = ops::ConcatCols(a, b);
    EXPECT_EQ(c.GetShape(), Shape({2, 5}));
    EXPECT_FLOAT_EQ(c.At(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(c.At(0, 2), 2.0f);

    const Tensor d(Shape({3, 2}), 3.0f);
    const Tensor e = ops::ConcatRows(a, d);
    EXPECT_EQ(e.GetShape(), Shape({5, 2}));
    EXPECT_FLOAT_EQ(e.At(4, 0), 3.0f);

    EXPECT_THROW(ops::ConcatCols(a, d), Error);
    EXPECT_THROW(ops::ConcatRows(a, b), Error);
}

TEST(TransposeTest, DoubleTransposeIsIdentity)
{
    Rng rng(4);
    const Tensor a = init::Normal(Shape({3, 7}), rng);
    const Tensor tt = ops::Transpose(ops::Transpose(a));
    for (int64_t i = 0; i < a.NumElements(); ++i) {
        EXPECT_FLOAT_EQ(tt.At(i), a.At(i));
    }
}

TEST(ReductionTest, MeanAndSumRows)
{
    const Tensor a = Mat({3, 4, 0, 0}, 2, 2);
    const Tensor mean = ops::MeanRows(a);
    EXPECT_FLOAT_EQ(mean.At(0), 1.5f);
    EXPECT_FLOAT_EQ(mean.At(1), 2.0f);

    const Tensor sum = ops::SumRows(a);
    EXPECT_FLOAT_EQ(sum.At(0), 3.0f);
    EXPECT_FLOAT_EQ(sum.At(1), 4.0f);
}

TEST(GatherScatterTest, RoundTrip)
{
    Rng rng(5);
    Tensor table = init::Normal(Shape({10, 3}), rng);
    const std::vector<int64_t> idx = {7, 2, 2, 9};
    const Tensor rows = ops::GatherRows(table, idx);
    EXPECT_EQ(rows.GetShape(), Shape({4, 3}));
    EXPECT_FLOAT_EQ(rows.At(0, 0), table.At(7, 0));
    EXPECT_FLOAT_EQ(rows.At(2, 1), table.At(2, 1));

    Tensor modified = rows;
    modified.Fill(1.0f);
    ops::ScatterRows(table, idx, modified);
    EXPECT_FLOAT_EQ(table.At(7, 0), 1.0f);
    EXPECT_FLOAT_EQ(table.At(9, 2), 1.0f);
}

TEST(GatherScatterTest, OutOfRangeThrows)
{
    Tensor table(Shape({3, 2}));
    EXPECT_THROW(ops::GatherRows(table, {3}), Error);
    EXPECT_THROW(ops::GatherRows(table, {-1}), Error);
    Tensor rows(Shape({1, 2}));
    EXPECT_THROW(ops::ScatterRows(table, {5}, rows), Error);
    EXPECT_THROW(ops::ScatterRows(table, {0, 1}, rows), Error);
}

TEST(DotTest, Orthogonal)
{
    EXPECT_DOUBLE_EQ(
        ops::Dot(Tensor::FromVector({1, 0}), Tensor::FromVector({0, 1})), 0.0);
    EXPECT_DOUBLE_EQ(
        ops::Dot(Tensor::FromVector({1, 2}), Tensor::FromVector({3, 4})), 11.0);
    EXPECT_THROW(
        ops::Dot(Tensor::FromVector({1}), Tensor::FromVector({1, 2})), Error);
}

TEST(FlopsTest, MatMulFlopsFormula)
{
    EXPECT_EQ(ops::MatMulFlops(2, 3, 4), 2 * 2 * 3 * 4);
    EXPECT_EQ(ops::ElementwiseFlops(Tensor(Shape({5, 5}))), 25);
}

/// Property sweep: associativity-style identities over random matrices.
struct MatMulDims {
    int64_t m;
    int64_t k;
    int64_t n;
};

class MatMulProperty : public ::testing::TestWithParam<MatMulDims> {};

TEST_P(MatMulProperty, DistributesOverAddition)
{
    const auto [m, k, n] = GetParam();
    Rng rng(42);
    const Tensor a = init::Normal(Shape({m, k}), rng);
    const Tensor b = init::Normal(Shape({k, n}), rng);
    const Tensor c = init::Normal(Shape({k, n}), rng);
    const Tensor lhs = ops::MatMul(a, ops::Add(b, c));
    const Tensor rhs = ops::Add(ops::MatMul(a, b), ops::MatMul(a, c));
    for (int64_t i = 0; i < lhs.NumElements(); ++i) {
        EXPECT_NEAR(lhs.At(i), rhs.At(i), 1e-3f);
    }
}

TEST_P(MatMulProperty, TransposeReversesOrder)
{
    const auto [m, k, n] = GetParam();
    Rng rng(43);
    const Tensor a = init::Normal(Shape({m, k}), rng);
    const Tensor b = init::Normal(Shape({k, n}), rng);
    const Tensor lhs = ops::Transpose(ops::MatMul(a, b));
    const Tensor rhs = ops::MatMul(ops::Transpose(b), ops::Transpose(a));
    for (int64_t i = 0; i < lhs.NumElements(); ++i) {
        EXPECT_NEAR(lhs.At(i), rhs.At(i), 1e-3f);
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, MatMulProperty,
                         ::testing::Values(MatMulDims{1, 1, 1}, MatMulDims{2, 3, 4},
                                           MatMulDims{5, 1, 5}, MatMulDims{7, 8, 3},
                                           MatMulDims{16, 16, 16}));

}  // namespace
}  // namespace dgnn
