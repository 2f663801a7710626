#pragma once

/// @file
/// Graph convolution layer: H' = act(A_hat · H · W^T + b), with A_hat a
/// (pre-normalized) sparse adjacency. The sparse matrix lives here as a
/// minimal CSR so the nn substrate stays independent of the graph library;
/// models convert their snapshots via graph/snapshot.hpp helpers.

#include <vector>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace dgnn::nn {

/// Minimal CSR sparse matrix (square, float values).
struct SparseMatrix {
    int64_t n = 0;                      ///< rows == cols
    std::vector<int64_t> row_offsets;   ///< size n+1
    std::vector<int64_t> col_indices;   ///< size nnz
    std::vector<float> values;          ///< size nnz

    int64_t Nnz() const { return static_cast<int64_t>(col_indices.size()); }
};

/// y = A · x for CSR A [n, n] and dense x [n, d].
Tensor Spmm(const SparseMatrix& a, const Tensor& x);

/// A GCN layer's forward as its two kernels: the irregular SpMM
/// aggregation, then the dense transform.
struct GcnCost {
    sim::KernelDesc spmm;
    sim::KernelDesc transform;
};

/// One GCN layer (Kipf & Welling style with an external normalized A_hat).
class GcnLayer : public Module {
  public:
    GcnLayer(int64_t in_features, int64_t out_features, Rng& rng,
             Activation act = Activation::kRelu);

    /// a_hat: normalized adjacency [n, n]; h: [n, in] -> [n, out].
    Tensor Forward(const SparseMatrix& a_hat, const Tensor& h) const;

    /// Forward with externally supplied weights (EvolveGCN evolves them).
    Tensor ForwardWithWeight(const SparseMatrix& a_hat, const Tensor& h,
                             const Tensor& weight) const;

    int64_t InFeatures() const { return in_features_; }
    int64_t OutFeatures() const { return out_features_; }
    const Tensor& Weight() const { return weight_.Weight(); }

    /// FLOPs for n nodes and nnz edges.
    int64_t ForwardFlops(int64_t n, int64_t nnz) const;

    /// ForwardWithWeight over n nodes and nnz edges as two kernels whose
    /// flops sum to ForwardFlops(n, nnz). "spmm" reads h and each edge's
    /// 8-byte index and 4-byte value and writes the aggregate A_hat · h, one
    /// parallel item per aggregate element; "gcn_transform" reads the
    /// aggregate and the [out, in] weight and writes the output, one item
    /// per output element.
    GcnCost Cost(int64_t n, int64_t nnz) const;

    /// Forward over @p graphs graphs of n nodes and nnz edges each, as one
    /// irregular kernel: graphs x ForwardFlops(n, nnz); each graph reads its
    /// edges (12 bytes each) and the input and writes the output, the
    /// aggregate staying on-chip; one parallel item per output element.
    sim::KernelDesc FusedCost(std::string name, int64_t graphs, int64_t n,
                              int64_t nnz) const;

  private:
    int64_t in_features_;
    int64_t out_features_;
    Activation act_;
    Linear weight_;
};

/// Row-normalizes a CSR adjacency in place (random-walk normalization).
void RowNormalize(SparseMatrix& a);

}  // namespace dgnn::nn
