#pragma once

/// @file
/// Math kernels over dgnn::Tensor. All functions are pure (inputs const,
/// fresh output) unless the name says otherwise. These are the host-side
/// numerics behind every simulated device kernel.

#include "tensor/tensor.hpp"

namespace dgnn::ops {

/// C = A x B for rank-2 A [m,k] and B [k,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// The right-hand side B [n,k] of C = A x B^T, packed for the host GEMM:
/// widened to double and cut into panels of kPanel rows. Each panel is
/// stored kk-major, so element (row j, column kk) sits at
/// (j / kPanel) * k * kPanel + kk * kPanel + j % kPanel. Rows past n are
/// zero and never reach an output.
class PackedRhs {
  public:
    static constexpr int64_t kPanel = 8;

    /// n and k of the packed B.
    int64_t Rows() const { return rows_; }
    int64_t Cols() const { return cols_; }

    /// Panel @p p: Cols() steps of kPanel doubles.
    const double* Panel(int64_t p) const { return data_.data() + p * cols_ * kPanel; }

  private:
    friend PackedRhs PackRhs(const Tensor& b);

    int64_t rows_ = 0;
    int64_t cols_ = 0;
    std::vector<double> data_;
};

/// Packs rank-2 @p b for MatMulTransposed; callers that reuse B pack it once.
PackedRhs PackRhs(const Tensor& b);

/// C = A x B^T for rank-2 A [m,k] and packed B [n,k]: the one host GEMM.
///
/// Numeric contract: every output element is one double accumulator, starting
/// at +0.0 and summed over kk in ascending order, then rounded to float once.
/// A float x float product is exact in double (24 + 24 significand bits fit in
/// 53), so the only rounding is the add chain itself. It runs the last of
/// detail::HostGemmKernels(). Each kernel keeps a tile of independent
/// accumulators per panel, but that only interleaves chains, and a fused
/// multiply-add of an exact product rounds like the separate add, so neither
/// the kernel, its vector width nor FMA can change a bit of the output. See
/// DESIGN.md section 2.
Tensor MatMulTransposed(const Tensor& a, const PackedRhs& b);

/// C = A x B^T for rank-2 A [m,k] and B [n,k]; packs B on every call.
Tensor MatMulTransposed(const Tensor& a, const Tensor& b);

namespace detail {

/// One implementation of MatMulTransposed's numeric contract: writes
/// C [m, b.Rows()] = A [m, b.Cols()] x B^T into @p c, both row-major.
using HostGemmFn = void (*)(const float* a, int64_t m, const PackedRhs& b, float* c);

struct HostGemmKernel {
    const char* name;
    HostGemmFn fn;
};

/// The host GEMM kernels this CPU runs, found once: "portable" everywhere,
/// then "avx2_fma" on an x86-64 CPU with AVX2 and FMA, then "avx512" if it
/// also has AVX-512F. MatMulTransposed runs the last; tests and the
/// micro-benchmark run each.
const std::vector<HostGemmKernel>& HostGemmKernels();

}  // namespace detail

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise (Hadamard) product; shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);

/// Adds a rank-1 bias to every row of a rank-2 tensor, in place of
/// @p matrix: pass an rvalue to skip the copy.
Tensor AddRowBroadcast(Tensor matrix, const Tensor& row);

/// Scales every element by @p s.
Tensor Scale(const Tensor& a, float s);

/// Elementwise activations.
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Gelu(const Tensor& a);

/// Row-wise softmax over the last axis of a rank-2 tensor.
Tensor SoftmaxRows(const Tensor& a);

/// Concatenates rank-2 tensors along columns (axis 1); row counts must match.
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Mean over rows of a rank-2 tensor -> rank-1 of length cols.
Tensor MeanRows(const Tensor& a);

/// Sum over rows of a rank-2 tensor -> rank-1 of length cols.
Tensor SumRows(const Tensor& a);

/// Gathers rows of @p table by @p indices into a new [indices.size, cols].
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices);

/// Scatters @p rows (rank-2) into @p table rows named by @p indices (in-place).
void ScatterRows(Tensor& table, const std::vector<int64_t>& indices, const Tensor& rows);

/// Approximate FLOP count of C = A x B for A [m,k] and B [k,n], used by the
/// device cost model.
int64_t MatMulFlops(int64_t m, int64_t k, int64_t n);

}  // namespace dgnn::ops
