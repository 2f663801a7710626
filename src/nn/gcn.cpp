#include "nn/gcn.hpp"

#include <utility>

#include "tensor/ops.hpp"

namespace dgnn::nn {

Tensor
Spmm(const SparseMatrix& a, const Tensor& x)
{
    DGNN_CHECK(x.Rank() == 2 && x.Dim(0) == a.n, "Spmm expects x of [", a.n,
               ", d], got ", x.GetShape().ToString());
    DGNN_CHECK(static_cast<int64_t>(a.row_offsets.size()) == a.n + 1,
               "CSR row_offsets size ", a.row_offsets.size(), " != n+1 = ", a.n + 1);
    const int64_t d = x.Dim(1);
    ops::CountMacs(a.Nnz() * d);
    Tensor y(Shape({a.n, d}));
    for (int64_t i = 0; i < a.n; ++i) {
        float* yrow = y.Data() + i * d;
        for (int64_t e = a.row_offsets[static_cast<size_t>(i)];
             e < a.row_offsets[static_cast<size_t>(i) + 1]; ++e) {
            const int64_t j = a.col_indices[static_cast<size_t>(e)];
            DGNN_ASSERT(j >= 0 && j < a.n);
            const float w = a.values[static_cast<size_t>(e)];
            const float* xrow = x.Data() + j * d;
            for (int64_t c = 0; c < d; ++c) {
                yrow[c] += w * xrow[c];
            }
        }
    }
    return y;
}

GcnLayer::GcnLayer(int64_t in_features, int64_t out_features, Rng& rng, Activation act)
    : Module("gcn_layer"),
      in_features_(in_features),
      out_features_(out_features),
      act_(act),
      weight_(in_features, out_features, rng)
{
    RegisterChild(&weight_);
}

Tensor
GcnLayer::Forward(const SparseMatrix& a_hat, const Tensor& h) const
{
    const Tensor aggregated = Spmm(a_hat, h);
    return Apply(act_, weight_.Forward(aggregated));
}

Tensor
GcnLayer::ForwardWithWeight(const SparseMatrix& a_hat, const Tensor& h,
                            const Tensor& weight) const
{
    DGNN_CHECK(weight.Rank() == 2 && weight.Dim(0) == out_features_ &&
                   weight.Dim(1) == in_features_,
               "external GCN weight must be [", out_features_, ", ", in_features_,
               "], got ", weight.GetShape().ToString());
    const Tensor aggregated = Spmm(a_hat, h);
    return Apply(act_, ops::MatMulTransposed(aggregated, weight));
}

int64_t
GcnLayer::ForwardFlops(int64_t n, int64_t nnz) const
{
    const int64_t spmm = 2 * nnz * in_features_;
    const int64_t transform = ops::MatMulFlops(n, in_features_, out_features_);
    return spmm + transform;
}

GcnCost
GcnLayer::Cost(int64_t n, int64_t nnz) const
{
    GcnCost cost{
        RowCost("spmm", n, 2 * nnz * in_features_, 2 * in_features_ * 4, in_features_,
                nnz * 12),
        RowCost("gcn_transform", n, ops::MatMulFlops(n, in_features_, out_features_),
                (in_features_ + out_features_) * 4, out_features_,
                in_features_ * out_features_ * 4),
    };
    cost.spmm.irregular = true;
    return cost;
}

sim::KernelDesc
GcnLayer::FusedCost(std::string name, int64_t graphs, int64_t n, int64_t nnz) const
{
    sim::KernelDesc fused =
        RowCost(std::move(name), graphs, graphs * ForwardFlops(n, nnz),
                nnz * 12 + n * (in_features_ + out_features_) * 4, n * out_features_, 0);
    fused.irregular = true;
    return fused;
}

void
RowNormalize(SparseMatrix& a)
{
    for (int64_t i = 0; i < a.n; ++i) {
        const int64_t begin = a.row_offsets[static_cast<size_t>(i)];
        const int64_t end = a.row_offsets[static_cast<size_t>(i) + 1];
        double sum = 0.0;
        for (int64_t e = begin; e < end; ++e) {
            sum += a.values[static_cast<size_t>(e)];
        }
        if (sum <= 0.0) {
            continue;
        }
        for (int64_t e = begin; e < end; ++e) {
            a.values[static_cast<size_t>(e)] =
                static_cast<float>(a.values[static_cast<size_t>(e)] / sum);
        }
    }
}

}  // namespace dgnn::nn
