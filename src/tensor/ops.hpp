#pragma once

/// @file
/// Math kernels over dgnn::Tensor. All functions are pure (inputs const,
/// fresh output) unless the name says otherwise. These are the host-side
/// numerics behind every simulated device kernel.

#include "tensor/tensor.hpp"

namespace dgnn::ops {

/// C = A x B for rank-2 A [m,k] and B [k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A x B^T for rank-2 A [m,k] and B [n,k].
///
/// Numeric contract: every output element is one double accumulator, starting
/// at +0.0 and summed over kk in ascending order, then rounded to float once.
/// A float x float product is exact in double (24 + 24 significand bits fit in
/// 53), so the only rounding is the add chain itself. The kernel is register
/// blocked (2 rows x 4 columns; 1 x 8 for single-row calls; scalar tails), but
/// blocking only interleaves independent chains and a fused multiply-add of
/// an exact product rounds like the separate add, so neither vector width nor
/// FMA contraction can change a bit of the output. See DESIGN.md section 2.
Tensor MatMulTransposed(const Tensor& a, const Tensor& b);

/// y = x W^T + b, PyTorch nn.Linear convention: x [m,in], W [out,in], b [out].
Tensor LinearForward(const Tensor& x, const Tensor& weight, const Tensor& bias);

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise difference; shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) product; shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Adds a rank-1 bias to every row of a rank-2 tensor.
Tensor AddRowBroadcast(const Tensor& matrix, const Tensor& row);

/// Scales every element by @p s.
Tensor Scale(const Tensor& a, float s);

/// Elementwise activations.
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Gelu(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Cos(const Tensor& a);
Tensor Sin(const Tensor& a);

/// Row-wise softmax over the last axis of a rank-2 tensor.
Tensor SoftmaxRows(const Tensor& a);

/// Concatenates rank-2 tensors along columns (axis 1); row counts must match.
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Concatenates rank-2 tensors along rows (axis 0); column counts must match.
Tensor ConcatRows(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Row-wise L2 norms of a rank-2 tensor -> rank-1 of length rows.
Tensor RowNorms(const Tensor& a);

/// Mean over rows of a rank-2 tensor -> rank-1 of length cols.
Tensor MeanRows(const Tensor& a);

/// Sum over rows of a rank-2 tensor -> rank-1 of length cols.
Tensor SumRows(const Tensor& a);

/// Gathers rows of @p table by @p indices into a new [indices.size, cols].
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices);

/// Scatters @p rows (rank-2) into @p table rows named by @p indices (in-place).
void ScatterRows(Tensor& table, const std::vector<int64_t>& indices, const Tensor& rows);

/// Dot product of two rank-1 tensors.
double Dot(const Tensor& a, const Tensor& b);

/// Approximate FLOP count helpers used by the device cost model.
int64_t MatMulFlops(int64_t m, int64_t k, int64_t n);
int64_t ElementwiseFlops(const Tensor& t);

}  // namespace dgnn::ops
