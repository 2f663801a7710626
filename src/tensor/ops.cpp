#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace dgnn::ops {

namespace {

/// Applies @p fn to every element of @p a into a fresh tensor.
template <typename Fn>
Tensor
ElementwiseUnary(const Tensor& a, Fn fn)
{
    Tensor out(a.GetShape());
    const float* src = a.Data();
    float* dst = out.Data();
    const int64_t n = a.NumElements();
    for (int64_t i = 0; i < n; ++i) {
        dst[i] = fn(src[i]);
    }
    return out;
}

/// Applies @p fn elementwise over two same-shape tensors.
template <typename Fn>
Tensor
ElementwiseBinary(const Tensor& a, const Tensor& b, Fn fn, const char* op_name)
{
    DGNN_CHECK(a.GetShape() == b.GetShape(), op_name, ": shape mismatch ",
               a.GetShape().ToString(), " vs ", b.GetShape().ToString());
    Tensor out(a.GetShape());
    const float* pa = a.Data();
    const float* pb = b.Data();
    float* dst = out.Data();
    const int64_t n = a.NumElements();
    for (int64_t i = 0; i < n; ++i) {
        dst[i] = fn(pa[i], pb[i]);
    }
    return out;
}

/// Rows x kPanel outputs of MatMulTransposed: (row r of @p a) . (panel row l)
/// into c[r * ldc + l] for the first @p cols lanes; the other lanes are
/// padding and are dropped. Each output is one double accumulator summed over
/// kk in ascending order; the blocking only interleaves independent chains.
template <size_t Rows>
void
PanelBlock(const float* a, int64_t k, const double* panel, int64_t cols, float* c,
           int64_t ldc)
{
    constexpr auto kLanes = static_cast<size_t>(PackedRhs::kPanel);
    std::array<std::array<double, kLanes>, Rows> acc{};
    for (int64_t kk = 0; kk < k; ++kk) {
        const double* w = panel + kk * PackedRhs::kPanel;
        for (size_t r = 0; r < Rows; ++r) {
            const auto x = static_cast<double>(a[static_cast<int64_t>(r) * k + kk]);
            for (size_t l = 0; l < kLanes; ++l) {
                acc[r][l] += x * w[l];
            }
        }
    }
    for (size_t r = 0; r < Rows; ++r) {
        for (int64_t l = 0; l < cols; ++l) {
            c[static_cast<int64_t>(r) * ldc + l] =
                static_cast<float>(acc[r][static_cast<size_t>(l)]);
        }
    }
}

}  // namespace

Tensor
MatMul(const Tensor& a, const Tensor& b)
{
    DGNN_CHECK(a.Rank() == 2 && b.Rank() == 2, "MatMul requires rank-2 inputs, got ",
               a.GetShape().ToString(), " and ", b.GetShape().ToString());
    const int64_t m = a.Dim(0);
    const int64_t k = a.Dim(1);
    const int64_t n = b.Dim(1);
    DGNN_CHECK(b.Dim(0) == k, "MatMul inner-dimension mismatch: ",
               a.GetShape().ToString(), " x ", b.GetShape().ToString());
    Tensor c(Shape({m, n}));
    const float* pa = a.Data();
    const float* pb = b.Data();
    float* pc = c.Data();
    // i-k-j loop order keeps the inner loop contiguous over B and C rows.
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t kk = 0; kk < k; ++kk) {
            const float aik = pa[i * k + kk];
            if (aik == 0.0f) {
                continue;
            }
            const float* brow = pb + kk * n;
            float* crow = pc + i * n;
            for (int64_t j = 0; j < n; ++j) {
                crow[j] += aik * brow[j];
            }
        }
    }
    return c;
}

PackedRhs
PackRhs(const Tensor& b)
{
    DGNN_CHECK(b.Rank() == 2, "PackRhs requires rank-2, got ", b.GetShape().ToString());
    constexpr int64_t kLanes = PackedRhs::kPanel;
    PackedRhs packed;
    packed.rows_ = b.Dim(0);
    packed.cols_ = b.Dim(1);
    const int64_t k = packed.cols_;
    const int64_t panels = (packed.rows_ + kLanes - 1) / kLanes;
    packed.data_.assign(static_cast<size_t>(panels * kLanes * k), 0.0);
    const float* pb = b.Data();
    for (int64_t j = 0; j < packed.rows_; ++j) {
        double* dst = packed.data_.data() + (j / kLanes) * k * kLanes + j % kLanes;
        for (int64_t kk = 0; kk < k; ++kk) {
            dst[kk * kLanes] = pb[j * k + kk];
        }
    }
    return packed;
}

Tensor
MatMulTransposed(const Tensor& a, const PackedRhs& b)
{
    DGNN_CHECK(a.Rank() == 2, "MatMulTransposed requires rank-2 A, got ",
               a.GetShape().ToString());
    const int64_t m = a.Dim(0);
    const int64_t k = a.Dim(1);
    const int64_t n = b.Rows();
    DGNN_CHECK(b.Cols() == k, "MatMulTransposed inner-dimension mismatch: ",
               a.GetShape().ToString(), " x ", Shape({n, b.Cols()}).ToString(), "^T");
    Tensor c(Shape({m, n}));
    const float* pa = a.Data();
    float* pc = c.Data();
    // Panel-major, so one panel stays in cache across every row pair; the
    // odd last row (and every m == 1 call) takes the one-row block.
    for (int64_t j = 0; j < n; j += PackedRhs::kPanel) {
        const double* panel = b.Panel(j / PackedRhs::kPanel);
        const int64_t cols = std::min(PackedRhs::kPanel, n - j);
        int64_t i = 0;
        for (; i + 2 <= m; i += 2) {
            PanelBlock<2>(pa + i * k, k, panel, cols, pc + i * n + j, n);
        }
        if (i < m) {
            PanelBlock<1>(pa + i * k, k, panel, cols, pc + i * n + j, n);
        }
    }
    return c;
}

Tensor
MatMulTransposed(const Tensor& a, const Tensor& b)
{
    return MatMulTransposed(a, PackRhs(b));
}

Tensor
Add(const Tensor& a, const Tensor& b)
{
    return ElementwiseBinary(a, b, [](float x, float y) { return x + y; }, "Add");
}

Tensor
Mul(const Tensor& a, const Tensor& b)
{
    return ElementwiseBinary(a, b, [](float x, float y) { return x * y; }, "Mul");
}

Tensor
AddRowBroadcast(const Tensor& matrix, const Tensor& row)
{
    DGNN_CHECK(matrix.Rank() == 2 && row.Rank() == 1,
               "AddRowBroadcast expects [m,n] + [n], got ",
               matrix.GetShape().ToString(), " and ", row.GetShape().ToString());
    const int64_t m = matrix.Dim(0);
    const int64_t n = matrix.Dim(1);
    DGNN_CHECK(row.Dim(0) == n, "AddRowBroadcast width mismatch: ", n, " vs ",
               row.Dim(0));
    Tensor out(matrix.GetShape());
    const float* pm = matrix.Data();
    const float* pr = row.Data();
    float* po = out.Data();
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            po[i * n + j] = pm[i * n + j] + pr[j];
        }
    }
    return out;
}

Tensor
Scale(const Tensor& a, float s)
{
    return ElementwiseUnary(a, [s](float x) { return x * s; });
}

Tensor
Relu(const Tensor& a)
{
    return ElementwiseUnary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor
Sigmoid(const Tensor& a)
{
    return ElementwiseUnary(a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); });
}

Tensor
Tanh(const Tensor& a)
{
    return ElementwiseUnary(a, [](float x) { return std::tanh(x); });
}

Tensor
Gelu(const Tensor& a)
{
    // tanh approximation of GELU, matching common framework implementations.
    constexpr float kSqrt2OverPi = 0.7978845608f;
    return ElementwiseUnary(a, [](float x) {
        const float inner = kSqrt2OverPi * (x + 0.044715f * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(inner));
    });
}

Tensor
SoftmaxRows(const Tensor& a)
{
    DGNN_CHECK(a.Rank() == 2, "SoftmaxRows requires rank-2, got ",
               a.GetShape().ToString());
    const int64_t m = a.Dim(0);
    const int64_t n = a.Dim(1);
    DGNN_CHECK(n > 0, "SoftmaxRows over empty rows");
    Tensor out(a.GetShape());
    const float* pa = a.Data();
    float* po = out.Data();
    for (int64_t i = 0; i < m; ++i) {
        const float* row = pa + i * n;
        float mx = row[0];
        for (int64_t j = 1; j < n; ++j) {
            mx = std::max(mx, row[j]);
        }
        double denom = 0.0;
        for (int64_t j = 0; j < n; ++j) {
            denom += std::exp(static_cast<double>(row[j] - mx));
        }
        for (int64_t j = 0; j < n; ++j) {
            po[i * n + j] =
                static_cast<float>(std::exp(static_cast<double>(row[j] - mx)) / denom);
        }
    }
    return out;
}

Tensor
ConcatCols(const Tensor& a, const Tensor& b)
{
    DGNN_CHECK(a.Rank() == 2 && b.Rank() == 2 && a.Dim(0) == b.Dim(0),
               "ConcatCols requires matching row counts, got ",
               a.GetShape().ToString(), " and ", b.GetShape().ToString());
    const int64_t m = a.Dim(0);
    const int64_t na = a.Dim(1);
    const int64_t nb = b.Dim(1);
    Tensor out(Shape({m, na + nb}));
    for (int64_t i = 0; i < m; ++i) {
        std::copy(a.Data() + i * na, a.Data() + (i + 1) * na,
                  out.Data() + i * (na + nb));
        std::copy(b.Data() + i * nb, b.Data() + (i + 1) * nb,
                  out.Data() + i * (na + nb) + na);
    }
    return out;
}

Tensor
Transpose(const Tensor& a)
{
    DGNN_CHECK(a.Rank() == 2, "Transpose requires rank-2, got ",
               a.GetShape().ToString());
    const int64_t m = a.Dim(0);
    const int64_t n = a.Dim(1);
    Tensor out(Shape({n, m}));
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            out.Data()[j * m + i] = a.Data()[i * n + j];
        }
    }
    return out;
}

Tensor
MeanRows(const Tensor& a)
{
    DGNN_CHECK(a.Rank() == 2 && a.Dim(0) > 0, "MeanRows requires non-empty rank-2, got ",
               a.GetShape().ToString());
    Tensor out = SumRows(a);
    const float inv = 1.0f / static_cast<float>(a.Dim(0));
    for (int64_t j = 0; j < out.NumElements(); ++j) {
        out.Data()[j] *= inv;
    }
    return out;
}

Tensor
SumRows(const Tensor& a)
{
    DGNN_CHECK(a.Rank() == 2, "SumRows requires rank-2, got ", a.GetShape().ToString());
    const int64_t m = a.Dim(0);
    const int64_t n = a.Dim(1);
    Tensor out(Shape({n}));
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            out.Data()[j] += a.Data()[i * n + j];
        }
    }
    return out;
}

Tensor
GatherRows(const Tensor& table, const std::vector<int64_t>& indices)
{
    DGNN_CHECK(table.Rank() == 2, "GatherRows requires rank-2 table, got ",
               table.GetShape().ToString());
    const int64_t rows = table.Dim(0);
    const int64_t cols = table.Dim(1);
    Tensor out(Shape({static_cast<int64_t>(indices.size()), cols}));
    for (size_t i = 0; i < indices.size(); ++i) {
        const int64_t idx = indices[i];
        DGNN_CHECK(idx >= 0 && idx < rows, "GatherRows index ", idx,
                   " out of range for ", rows, " rows");
        std::copy(table.Data() + idx * cols, table.Data() + (idx + 1) * cols,
                  out.Data() + static_cast<int64_t>(i) * cols);
    }
    return out;
}

void
ScatterRows(Tensor& table, const std::vector<int64_t>& indices, const Tensor& rows)
{
    DGNN_CHECK(table.Rank() == 2 && rows.Rank() == 2, "ScatterRows requires rank-2");
    DGNN_CHECK(rows.Dim(0) == static_cast<int64_t>(indices.size()),
               "ScatterRows: ", indices.size(), " indices but ", rows.Dim(0), " rows");
    DGNN_CHECK(rows.Dim(1) == table.Dim(1), "ScatterRows column mismatch: ",
               rows.Dim(1), " vs ", table.Dim(1));
    const int64_t cols = table.Dim(1);
    const int64_t table_rows = table.Dim(0);
    for (size_t i = 0; i < indices.size(); ++i) {
        const int64_t idx = indices[i];
        DGNN_CHECK(idx >= 0 && idx < table_rows, "ScatterRows index ", idx,
                   " out of range for ", table_rows, " rows");
        std::copy(rows.Data() + static_cast<int64_t>(i) * cols,
                  rows.Data() + static_cast<int64_t>(i + 1) * cols,
                  table.Data() + idx * cols);
    }
}

int64_t
MatMulFlops(int64_t m, int64_t k, int64_t n)
{
    return 2 * m * k * n;
}

}  // namespace dgnn::ops
