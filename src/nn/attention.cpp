#include "nn/attention.hpp"

#include <cmath>
#include <vector>

#include "tensor/ops.hpp"

namespace dgnn::nn {

namespace {

/// model_dim / num_heads, checked first: the initializer list divides
/// before the constructor body could run a check.
int64_t
HeadDim(int64_t model_dim, int64_t num_heads)
{
    DGNN_CHECK(num_heads > 0 && model_dim % num_heads == 0, "model_dim ", model_dim,
               " must be divisible by num_heads ", num_heads);
    return model_dim / num_heads;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(int64_t model_dim, int64_t num_heads, Rng& rng)
    : Module("mha"),
      model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(HeadDim(model_dim, num_heads)),
      wq_(model_dim, model_dim, rng),
      wk_(model_dim, model_dim, rng),
      wv_(model_dim, model_dim, rng),
      wo_(model_dim, model_dim, rng)
{
    RegisterChild(&wq_);
    RegisterChild(&wk_);
    RegisterChild(&wv_);
    RegisterChild(&wo_);
}

Tensor
MultiHeadAttention::Forward(const Tensor& query, const Tensor& kv,
                            std::span<const int64_t> slots, int64_t g) const
{
    DGNN_CHECK(query.Rank() == 2 && query.Dim(1) == model_dim_,
               "query must be [*, ", model_dim_, "], got ",
               query.GetShape().ToString());
    DGNN_CHECK(kv.Rank() == 2 && kv.Dim(1) == model_dim_, "kv must be [*, ",
               model_dim_, "], got ", kv.GetShape().ToString());
    DGNN_CHECK(g >= 1, "attention needs at least one slot per query, got g = ", g);
    const int64_t num_queries = query.Dim(0);
    const int64_t num_rows = kv.Dim(0);
    DGNN_CHECK(static_cast<int64_t>(slots.size()) == num_queries * g, "slot table holds ",
               slots.size(), " indices, expected ", num_queries, " queries x ", g,
               " slots");
    for (size_t s = 0; s < slots.size(); ++s) {
        DGNN_CHECK(slots[s] >= 0 && slots[s] < num_rows, "slot ", s, " names kv row ",
                   slots[s], ", outside [0, ", num_rows, ")");
    }

    // Each slot's score and weights x V products, d MACs each over the heads,
    // as charged: a reused score and a skipped zero weight count too.
    ops::CountMacs(2 * num_queries * g * model_dim_);
    const Tensor q = wq_.Forward(query);
    const Tensor k = wk_.Forward(kv);
    const Tensor v = wv_.Forward(kv);

    // Per head: every query's g scores, one ops::SoftmaxRows over them, then
    // weights x V as ops::MatMul sums it. Each score is the host GEMM's sum
    // (DESIGN.md section 2) times the scale, as ops::Scale multiplies, so
    // this matches HeadSlice -> MatMulTransposed -> Scale -> SoftmaxRows ->
    // MatMul bit for bit. A slot that repeats the row before it repeats that
    // row's score.
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    Tensor concat(Shape({num_queries, model_dim_}));
    Tensor scores(Shape({num_queries, g}));
    for (int64_t begin = 0; begin < model_dim_; begin += head_dim_) {
        for (int64_t i = 0; i < num_queries; ++i) {
            const int64_t* rows = slots.data() + i * g;
            const float* qi = q.Data() + i * model_dim_ + begin;
            float* score = scores.Data() + i * g;
            for (int64_t s = 0; s < g; ++s) {
                if (s > 0 && rows[s] == rows[s - 1]) {
                    score[s] = score[s - 1];
                    continue;
                }
                const float* kr = k.Data() + rows[s] * model_dim_ + begin;
                double acc = 0.0;
                for (int64_t kk = 0; kk < head_dim_; ++kk) {
                    acc += static_cast<double>(qi[kk]) * static_cast<double>(kr[kk]);
                }
                score[s] = static_cast<float>(acc) * scale;
            }
        }
        const Tensor weights = ops::SoftmaxRows(scores);
        for (int64_t i = 0; i < num_queries; ++i) {
            float* out = concat.Data() + i * model_dim_ + begin;
            for (int64_t s = 0; s < g; ++s) {
                const float w = weights.Data()[i * g + s];
                if (w == 0.0f) {
                    continue;
                }
                const float* vr = v.Data() + slots[i * g + s] * model_dim_ + begin;
                for (int64_t j = 0; j < head_dim_; ++j) {
                    out[j] += w * vr[j];
                }
            }
        }
    }
    return wo_.Forward(concat);
}

Tensor
MultiHeadAttention::SelfAttention(const Tensor& x) const
{
    DGNN_CHECK(x.Rank() == 2, "self-attention input must be rank-2, got ",
               x.GetShape().ToString());
    const int64_t n = x.Dim(0);
    std::vector<int64_t> slots(static_cast<size_t>(n * n));
    for (size_t s = 0; s < slots.size(); ++s) {
        slots[s] = static_cast<int64_t>(s) % n;
    }
    return Forward(x, x, slots, n);
}

int64_t
MultiHeadAttention::ForwardFlops(int64_t q, int64_t k) const
{
    const int64_t proj = wq_.ForwardFlops(q) + wk_.ForwardFlops(k) +
                         wv_.ForwardFlops(k) + wo_.ForwardFlops(q);
    const int64_t scores = 2 * q * k * model_dim_;   // QK^T across heads
    const int64_t apply = 2 * q * k * model_dim_;    // weights x V
    const int64_t softmax = 4 * q * k * num_heads_;
    return proj + scores + apply + softmax;
}

}  // namespace dgnn::nn
