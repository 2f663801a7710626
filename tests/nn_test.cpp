// Tests for the neural-module substrate.

#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/embedding.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "nn/mlp.hpp"
#include "nn/module.hpp"
#include "nn/rnn_cell.hpp"
#include "nn/time_encoding.hpp"
#include "tensor/ops.hpp"

namespace dgnn::nn {
namespace {

TEST(LinearTest, ShapeAndDeterminism)
{
    Rng r1(1);
    Rng r2(1);
    Linear l1(4, 3, r1);
    Linear l2(4, 3, r2);
    Rng rx(2);
    const Tensor x = init::Normal(Shape({5, 4}), rx);
    const Tensor y1 = l1.Forward(x);
    const Tensor y2 = l2.Forward(x);
    EXPECT_EQ(y1.GetShape(), Shape({5, 3}));
    for (int64_t i = 0; i < y1.NumElements(); ++i) {
        EXPECT_EQ(y1.At(i), y2.At(i));
    }
}

TEST(LinearTest, WrongInputWidthThrows)
{
    Rng rng(1);
    Linear l(4, 3, rng);
    EXPECT_THROW(l.Forward(Tensor(Shape({5, 5}))), Error);
}

TEST(LinearTest, ParameterAccounting)
{
    Rng rng(1);
    Linear with_bias(4, 3, rng, true);
    Linear no_bias(4, 3, rng, false);
    EXPECT_EQ(with_bias.ParameterCount(), 4 * 3 + 3);
    EXPECT_EQ(no_bias.ParameterCount(), 4 * 3);
    EXPECT_EQ(with_bias.ParameterBytes(), (4 * 3 + 3) * 4);
}

TEST(LinearTest, ForwardFlopsScalesWithBatch)
{
    Rng rng(1);
    Linear l(8, 8, rng);
    EXPECT_EQ(l.ForwardFlops(2), 2 * l.ForwardFlops(1));
}

TEST(ModuleTest, AllParametersIncludesChildren)
{
    Rng rng(1);
    Mlp mlp({4, 8, 2}, rng);
    // Two Linear children: (4*8+8) + (8*2+2) parameters.
    EXPECT_EQ(mlp.ParameterCount(), 4 * 8 + 8 + 8 * 2 + 2);
    const auto params = mlp.AllParameters();
    EXPECT_EQ(params.size(), 4u);  // two weights + two biases
}

TEST(ActivationsTest, ParseAndApply)
{
    const Tensor x = Tensor::FromVector({-1.0f, 1.0f});
    EXPECT_EQ(Apply(Activation::kIdentity, x).At(0), -1.0f);
    EXPECT_EQ(Apply(Activation::kRelu, x).At(0), 0.0f);
}

TEST(RnnCellTest, OutputBoundedByTanh)
{
    Rng rng(3);
    RnnCell cell(6, 4, rng);
    Rng rx(4);
    const Tensor x = init::Normal(Shape({3, 6}), rx, 5.0f);
    const Tensor h = init::Normal(Shape({3, 4}), rx, 5.0f);
    const Tensor out = cell.Forward(x, h);
    EXPECT_EQ(out.GetShape(), Shape({3, 4}));
    EXPECT_LE(out.AbsMax(), 1.0f);
}

TEST(GruCellTest, InterpolatesBetweenStateAndCandidate)
{
    Rng rng(5);
    GruCell cell(4, 4, rng);
    Rng rx(6);
    const Tensor x = init::Normal(Shape({2, 4}), rx);
    const Tensor h = init::Normal(Shape({2, 4}), rx);
    const Tensor out = cell.Forward(x, h);
    EXPECT_EQ(out.GetShape(), Shape({2, 4}));
    EXPECT_TRUE(out.AllFinite());
    // GRU output is a convex combination of h and a tanh candidate, so it
    // cannot exceed max(|h|, 1).
    EXPECT_LE(out.AbsMax(), std::max(1.0f, h.AbsMax()) + 1e-5f);
}

TEST(GruCellTest, BatchMismatchThrows)
{
    Rng rng(5);
    GruCell cell(4, 4, rng);
    EXPECT_THROW(cell.Forward(Tensor(Shape({2, 4})), Tensor(Shape({3, 4}))), Error);
}

TEST(LstmCellTest, StateShapesAndBoundedHidden)
{
    Rng rng(7);
    LstmCell cell(5, 3, rng);
    LstmState s = cell.InitialState(2);
    EXPECT_EQ(s.h.GetShape(), Shape({2, 3}));
    EXPECT_EQ(s.c.GetShape(), Shape({2, 3}));
    Rng rx(8);
    for (int step = 0; step < 5; ++step) {
        const Tensor x = init::Normal(Shape({2, 5}), rx, 2.0f);
        s = cell.Forward(x, s);
    }
    EXPECT_TRUE(s.h.AllFinite());
    EXPECT_LE(s.h.AbsMax(), 1.0f);  // h = o * tanh(c)
}

TEST(LstmCellTest, CellStateAccumulates)
{
    Rng rng(9);
    LstmCell cell(2, 2, rng);
    LstmState s = cell.InitialState(1);
    Rng rx(10);
    const Tensor x = init::Normal(Shape({1, 2}), rx);
    const LstmState s1 = cell.Forward(x, s);
    const LstmState s2 = cell.Forward(x, s1);
    // The state must actually change step to step.
    EXPECT_NE(s1.c.Sum(), s2.c.Sum());
}

/// Columns [begin, end) of a rank-2 tensor.
Tensor
HeadSlice(const Tensor& t, int64_t begin, int64_t end)
{
    Tensor out(Shape({t.Dim(0), end - begin}));
    for (int64_t i = 0; i < t.Dim(0); ++i) {
        for (int64_t j = begin; j < end; ++j) {
            out.At(i, j - begin) = t.At(i, j);
        }
    }
    return out;
}

/// The per-query composition the slot kernel replaced: query i gathers its
/// slots' rows as key and value, then each head runs MatMulTransposed ->
/// Scale -> SoftmaxRows -> MatMul, and wo maps the concatenated heads.
/// Counts the softmax weights that are exactly 0 into @p zero_weights.
Tensor
ReferenceAttention(const MultiHeadAttention& mha, const Tensor& query, const Tensor& kv,
                   const std::vector<int64_t>& slots, int64_t g,
                   int64_t* zero_weights = nullptr)
{
    // wq, wk, wv, wo: a weight and a bias each, in construction order.
    const std::vector<Parameter> params = mha.AllParameters();
    const auto project = [&](const Tensor& x, size_t m) {
        return ops::AddRowBroadcast(ops::MatMulTransposed(x, *params[2 * m].value),
                                    *params[2 * m + 1].value);
    };
    const int64_t d = mha.ModelDim();
    const int64_t head_dim = d / mha.NumHeads();
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    Tensor out(Shape({query.Dim(0), d}));
    for (int64_t i = 0; i < query.Dim(0); ++i) {
        const std::vector<int64_t> rows(slots.begin() + i * g, slots.begin() + (i + 1) * g);
        const Tensor key = ops::GatherRows(kv, rows);
        const Tensor q = project(query.RowSlice(i, i + 1), 0);
        const Tensor k = project(key, 1);
        const Tensor v = project(key, 2);
        Tensor concat(Shape({1, d}));
        for (int64_t begin = 0; begin < d; begin += head_dim) {
            const int64_t end = begin + head_dim;
            const Tensor weights = ops::SoftmaxRows(ops::Scale(
                ops::MatMulTransposed(HeadSlice(q, begin, end), HeadSlice(k, begin, end)),
                scale));
            for (int64_t s = 0; zero_weights != nullptr && s < g; ++s) {
                *zero_weights += weights.At(0, s) == 0.0f ? 1 : 0;
            }
            const Tensor head = ops::MatMul(weights, HeadSlice(v, begin, end));
            for (int64_t j = begin; j < end; ++j) {
                concat.At(0, j) = head.At(0, j - begin);
            }
        }
        out.SetRow(i, project(concat, 3).Reshape(Shape({d})));
    }
    return out;
}

/// Compares two same-shape tensors bit for bit.
bool
BitIdentical(const Tensor& got, const Tensor& want)
{
    return got.GetShape() == want.GetShape() &&
           std::memcmp(got.Data(), want.Data(),
                       sizeof(float) * static_cast<size_t>(got.NumElements())) == 0;
}

TEST(AttentionTest, OutputShapeAndFinite)
{
    Rng rng(11);
    MultiHeadAttention mha(8, 2, rng);
    Rng rx(12);
    const Tensor q = init::Normal(Shape({3, 8}), rx);
    const Tensor kv = init::Normal(Shape({5, 8}), rx);
    const std::vector<int64_t> slots = {0, 1, 2, 3, 4, 4, 4, 0, 1, 2, 3, 4, 0, 0, 0};
    const Tensor y = mha.Forward(q, kv, slots, 5);
    EXPECT_EQ(y.GetShape(), Shape({3, 8}));
    EXPECT_TRUE(y.AllFinite());
}

TEST(AttentionTest, SingleKeyAttendsFully)
{
    // With one key, softmax weights are exactly 1: output = Wo(Wv(k)).
    Rng rng(13);
    MultiHeadAttention mha(4, 1, rng);
    Rng rx(14);
    const Tensor q = init::Normal(Shape({2, 4}), rx);
    const Tensor kv = init::Normal(Shape({1, 4}), rx);
    const std::vector<int64_t> slots = {0, 0};
    const Tensor y = mha.Forward(q, kv, slots, 1);
    for (int64_t j = 0; j < y.Dim(1); ++j) {
        EXPECT_NEAR(y.At(0, j), y.At(1, j), 1e-5f);
    }
}

TEST(AttentionTest, SlotKernelMatchesPerQueryReference)
{
    // Random slot tables share rows within and across queries; each query's
    // first i % g slots repeat one row, as a sampler's empty slots do.
    Rng rx(21);
    for (const int64_t heads : {1, 2}) {
        Rng rng(20);
        const MultiHeadAttention mha(8, heads, rng);
        for (const int64_t q_rows : {1, 3, 400}) {
            for (const int64_t g : {1, 5, 20}) {
                const int64_t kv_rows = 2 + q_rows * g / 4;
                const Tensor query = init::Normal(Shape({q_rows, 8}), rx);
                const Tensor kv = init::Normal(Shape({kv_rows, 8}), rx);
                std::vector<int64_t> slots;
                for (int64_t i = 0; i < q_rows; ++i) {
                    const int64_t shared = rx.UniformInt(0, kv_rows - 1);
                    for (int64_t s = 0; s < g; ++s) {
                        slots.push_back(s < i % g ? shared
                                                  : rx.UniformInt(0, kv_rows - 1));
                    }
                }
                EXPECT_TRUE(BitIdentical(mha.Forward(query, kv, slots, g),
                                         ReferenceAttention(mha, query, kv, slots, g)))
                    << heads << " heads, Q " << q_rows << ", g " << g;
            }
        }

        // One huge kv row: every other weight of its queries underflows to
        // exactly 0, which MatMul skips.
        const Tensor query = init::Normal(Shape({3, 8}), rx);
        Tensor kv = init::Normal(Shape({4, 8}), rx);
        for (int64_t j = 0; j < 8; ++j) {
            kv.At(2, j) *= 1.0e4f;
        }
        const std::vector<int64_t> slots = {0, 1, 2, 3, 2, 2, 0, 0, 1, 2, 3, 3};
        int64_t zero_weights = 0;
        const Tensor want = ReferenceAttention(mha, query, kv, slots, 4, &zero_weights);
        EXPECT_GT(zero_weights, 0) << heads << " heads";
        EXPECT_TRUE(BitIdentical(mha.Forward(query, kv, slots, 4), want))
            << heads << " heads, underflow";

        // Self-attention is the dense table: query i attends rows 0..n-1.
        const int64_t n = 12;
        const Tensor x = init::Normal(Shape({n, 8}), rx);
        std::vector<int64_t> dense;
        for (int64_t i = 0; i < n * n; ++i) {
            dense.push_back(i % n);
        }
        EXPECT_TRUE(BitIdentical(mha.SelfAttention(x), ReferenceAttention(mha, x, x, dense, n)))
            << heads << " heads, self-attention";
    }
}

TEST(AttentionTest, InvalidHeadDivisionThrows)
{
    Rng rng(15);
    EXPECT_THROW(MultiHeadAttention(6, 4, rng), Error);
}

TEST(AttentionTest, ZeroHeadsThrows)
{
    // The head width is model_dim / num_heads: checked before it divides.
    Rng rng(15);
    EXPECT_THROW(MultiHeadAttention(8, 0, rng), Error);
}

/// Expects @p call to throw a dgnn::Error whose message contains @p needle.
void
ExpectErrorNaming(const std::function<void()>& call, const std::string& needle)
{
    try {
        call();
        ADD_FAILURE() << "no error; expected one naming '" << needle << "'";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
}

TEST(AttentionTest, InvalidSlotTableThrows)
{
    Rng rng(16);
    MultiHeadAttention mha(4, 2, rng);
    const Tensor q(Shape({2, 4}));
    const Tensor kv(Shape({3, 4}));
    const auto call = [&](std::vector<int64_t> slots, int64_t g) {
        return [&mha, &q, &kv, slots, g] { (void)mha.Forward(q, kv, slots, g); };
    };
    ExpectErrorNaming(call({0, 1, 2, 3}, 2), "names kv row 3, outside [0, 3)");
    ExpectErrorNaming(call({0, -1, 2, 1}, 2), "names kv row -1");
    ExpectErrorNaming(call({0, 1, 2}, 2), "slot table holds 3 indices");
    ExpectErrorNaming(call({}, 0), "got g = 0");
    ExpectErrorNaming(
        [&] { (void)mha.Forward(q, Tensor(Shape({3, 5})), std::vector<int64_t>{0, 0}, 1); },
        "kv must be [*, 4]");
}

TEST(MlpTest, ShapesAndDepth)
{
    Rng rng(19);
    Mlp mlp({6, 12, 12, 2}, rng);
    EXPECT_EQ(mlp.InFeatures(), 6);
    EXPECT_EQ(mlp.OutFeatures(), 2);
    Rng rx(20);
    const Tensor y = mlp.Forward(init::Normal(Shape({3, 6}), rx));
    EXPECT_EQ(y.GetShape(), Shape({3, 2}));
    EXPECT_THROW(Mlp({4}, rng), Error);
}

TEST(TimeEncodingTest, BochnerBounded)
{
    Rng rng(21);
    BochnerTimeEncoder enc(16, rng);
    const Tensor deltas = Tensor::FromVector({0.0f, 1.0f, 100.0f, 1e6f});
    const Tensor y = enc.Forward(deltas);
    EXPECT_EQ(y.GetShape(), Shape({4, 16}));
    EXPECT_LE(y.AbsMax(), 1.0f);  // cos is bounded
}

TEST(TimeEncodingTest, BochnerDistinguishesTimes)
{
    Rng rng(22);
    BochnerTimeEncoder enc(16, rng);
    const Tensor y = enc.Forward(Tensor::FromVector({0.0f, 5.0f}));
    double diff = 0.0;
    for (int64_t j = 0; j < 16; ++j) {
        diff += std::fabs(y.At(0, j) - y.At(1, j));
    }
    EXPECT_GT(diff, 0.1);
}

TEST(EmbeddingTest, LookupUpdateRoundTrip)
{
    Rng rng(24);
    Embedding emb(10, 4, rng);
    Tensor rows(Shape({2, 4}), 3.0f);
    emb.Update({1, 7}, rows);
    const Tensor got = emb.Lookup({7, 1});
    EXPECT_FLOAT_EQ(got.At(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(got.At(1, 3), 3.0f);

    emb.SetRow(2, Tensor::FromVector({1, 2, 3, 4}));
    EXPECT_FLOAT_EQ(emb.Row(2).At(3), 4.0f);
}

TEST(GcnTest, SpmmIdentityAdjacency)
{
    // A = I => Spmm(A, x) == x.
    SparseMatrix a;
    a.n = 3;
    a.row_offsets = {0, 1, 2, 3};
    a.col_indices = {0, 1, 2};
    a.values = {1.0f, 1.0f, 1.0f};
    Rng rng(25);
    const Tensor x = init::Normal(Shape({3, 5}), rng);
    const Tensor y = Spmm(a, x);
    for (int64_t i = 0; i < x.NumElements(); ++i) {
        EXPECT_FLOAT_EQ(y.At(i), x.At(i));
    }
}

TEST(GcnTest, RowNormalizeMakesRowsSumToOne)
{
    SparseMatrix a;
    a.n = 2;
    a.row_offsets = {0, 2, 3};
    a.col_indices = {0, 1, 0};
    a.values = {2.0f, 6.0f, 5.0f};
    RowNormalize(a);
    EXPECT_FLOAT_EQ(a.values[0] + a.values[1], 1.0f);
    EXPECT_FLOAT_EQ(a.values[2], 1.0f);
}

TEST(GcnTest, LayerForwardShape)
{
    SparseMatrix a;
    a.n = 4;
    a.row_offsets = {0, 1, 2, 3, 4};
    a.col_indices = {1, 2, 3, 0};
    a.values = {1.0f, 1.0f, 1.0f, 1.0f};
    Rng rng(26);
    GcnLayer layer(6, 3, rng);
    Rng rx(27);
    const Tensor h = init::Normal(Shape({4, 6}), rx);
    const Tensor y = layer.Forward(a, h);
    EXPECT_EQ(y.GetShape(), Shape({4, 3}));
    // relu output is non-negative.
    for (int64_t i = 0; i < y.NumElements(); ++i) {
        EXPECT_GE(y.At(i), 0.0f);
    }
}

TEST(GcnTest, ExternalWeightMatchesOwnWeight)
{
    SparseMatrix a;
    a.n = 2;
    a.row_offsets = {0, 1, 2};
    a.col_indices = {1, 0};
    a.values = {1.0f, 1.0f};
    Rng rng(28);
    GcnLayer layer(3, 2, rng);
    Rng rx(29);
    const Tensor h = init::Normal(Shape({2, 3}), rx);
    const Tensor y1 = layer.Forward(a, h);
    // ForwardWithWeight uses no bias, so compare with the weight-only path.
    const Tensor y2 = layer.ForwardWithWeight(a, h, layer.Weight());
    EXPECT_EQ(y1.GetShape(), y2.GetShape());
}

/// Property: GRU/LSTM parameter counts follow the gate formulas.
class RnnParamProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RnnParamProperty, GateParameterCounts)
{
    const auto [in, hidden] = GetParam();
    Rng rng(30);
    GruCell gru(in, hidden, rng);
    LstmCell lstm(in, hidden, rng);
    RnnCell rnn(in, hidden, rng);
    EXPECT_EQ(gru.ParameterCount(),
              3 * hidden * (in + hidden) + 2 * 3 * hidden);
    EXPECT_EQ(lstm.ParameterCount(),
              4 * hidden * (in + hidden) + 2 * 4 * hidden);
    EXPECT_EQ(rnn.ParameterCount(), hidden * (in + hidden) + 2 * hidden);
}

INSTANTIATE_TEST_SUITE_P(Dims, RnnParamProperty,
                         ::testing::Values(std::pair(2, 2), std::pair(4, 8),
                                           std::pair(16, 4), std::pair(32, 32)));

}  // namespace
}  // namespace dgnn::nn
