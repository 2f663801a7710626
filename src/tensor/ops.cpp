#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dgnn::ops {

namespace {

MacHook mac_hook;

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

/// The portable kernel, for any CPU: panel-major, so one panel stays in cache
/// across every row pair; the odd last row (and every m == 1 call) takes the
/// one-row block. PanelBlock's inner loop is contiguous, so the compiler
/// vectorises it for whatever target it builds.
void
PortableGemm(const float* a, int64_t m, const PackedRhs& b, float* c)
{
    const int64_t k = b.Cols();
    const int64_t n = b.Rows();
    for (int64_t j = 0; j < n; j += PackedRhs::kPanel) {
        const double* panel = b.Panel(j / PackedRhs::kPanel);
        const int64_t cols = std::min(PackedRhs::kPanel, n - j);
        int64_t i = 0;
        for (; i + 2 <= m; i += 2) {
            PanelBlock<2>(a + i * k, k, panel, cols, c + i * n + j, n);
        }
        if (i < m) {
            PanelBlock<1>(a + i * k, k, panel, cols, c + i * n + j, n);
        }
    }
}

#if defined(__x86_64__)

/// Rounds one row's 8 lanes of a panel to float and stores the first @p cols.
__attribute__((target("avx2,fma"))) void
StoreLanes(__m256d lo, __m256d hi, int64_t cols, float* c)
{
    if (cols == PackedRhs::kPanel) {
        _mm_storeu_ps(c, _mm256_cvtpd_ps(lo));
        _mm_storeu_ps(c + 4, _mm256_cvtpd_ps(hi));
        return;
    }
    alignas(32) double lanes[PackedRhs::kPanel];
    _mm256_store_pd(lanes, lo);
    _mm256_store_pd(lanes + 4, hi);
    for (int64_t l = 0; l < cols; ++l) {
        c[l] = static_cast<float>(lanes[l]);
    }
}

/// Rows x (Panels * 8) outputs: rows of @p a against @p Panels adjacent
/// panels from @p panel, of which @p n_left rows of B are real. One step kk of
/// a panel is two ymm registers; each accumulator lane is one output's chain,
/// starting at +0.0 and fed kk in ascending order. A fused multiply-add of an
/// exact product rounds like the separate add, so this is PanelBlock's sum.
template <int Rows, int Panels>
__attribute__((target("avx2,fma"))) void
Avx2Tile(const float* a, int64_t k, const double* panel, int64_t n_left, float* c,
         int64_t ldc)
{
    constexpr int64_t kLanes = PackedRhs::kPanel;
    constexpr int kRegs = 2 * Panels;
    __m256d acc[Rows][kRegs];
    for (int r = 0; r < Rows; ++r) {
        for (int v = 0; v < kRegs; ++v) {
            acc[r][v] = _mm256_setzero_pd();
        }
    }
    for (int64_t kk = 0; kk < k; ++kk) {
        __m256d w[kRegs];
        for (int p = 0; p < Panels; ++p) {
            const double* step = panel + (p * k + kk) * kLanes;
            w[2 * p] = _mm256_loadu_pd(step);
            w[2 * p + 1] = _mm256_loadu_pd(step + 4);
        }
        for (int r = 0; r < Rows; ++r) {
            const __m256d x = _mm256_set1_pd(static_cast<double>(a[r * k + kk]));
            for (int v = 0; v < kRegs; ++v) {
                acc[r][v] = _mm256_fmadd_pd(x, w[v], acc[r][v]);
            }
        }
    }
    for (int r = 0; r < Rows; ++r) {
        for (int p = 0; p < Panels; ++p) {
            StoreLanes(acc[r][2 * p], acc[r][2 * p + 1],
                       std::min(kLanes, n_left - p * kLanes), c + r * ldc + p * kLanes);
        }
    }
}

/// The AVX2+FMA kernel: 4 x 8 tiles (8 independent FMA chains) per panel,
/// then 2 x 8 and 1 x 8 for the row tails. An m == 1 call takes two adjacent
/// panels at once (1 x 16, 4 chains), and 1 x 8 for an odd last panel.
__attribute__((target("avx2,fma"))) void
Avx2FmaGemm(const float* a, int64_t m, const PackedRhs& b, float* c)
{
    constexpr int64_t kLanes = PackedRhs::kPanel;
    const int64_t k = b.Cols();
    const int64_t n = b.Rows();
    int64_t j = 0;
    if (m == 1) {
        for (; j + kLanes < n; j += 2 * kLanes) {
            Avx2Tile<1, 2>(a, k, b.Panel(j / kLanes), n - j, c + j, n);
        }
    }
    for (; j < n; j += kLanes) {
        const double* panel = b.Panel(j / kLanes);
        int64_t i = 0;
        for (; i + 4 <= m; i += 4) {
            Avx2Tile<4, 1>(a + i * k, k, panel, n - j, c + i * n + j, n);
        }
        if (i + 2 <= m) {
            Avx2Tile<2, 1>(a + i * k, k, panel, n - j, c + i * n + j, n);
            i += 2;
        }
        if (i < m) {
            Avx2Tile<1, 1>(a + i * k, k, panel, n - j, c + i * n + j, n);
        }
    }
}

/// Widens @p Rows rows of @p a to double, kk-major: wide[kk * Rows + r].
template <int Rows>
void
WidenRows(const float* a, int64_t k, double* wide)
{
    for (int r = 0; r < Rows; ++r) {
        for (int64_t kk = 0; kk < k; ++kk) {
            wide[kk * Rows + r] = static_cast<double>(a[r * k + kk]);
        }
    }
}

/// Avx2Tile's contract on 512-bit registers: Rows x (Panels * 8) outputs,
/// with A read from WidenRows' buffer @p wide. One step kk of a panel is one
/// zmm register, and each accumulator lane is one output's chain, starting
/// at +0.0 and fed kk in ascending order.
template <int Rows, int Panels>
__attribute__((target("avx512f"))) void
Avx512Tile(const double* wide, int64_t k, const double* panel, int64_t n_left, float* c,
           int64_t ldc)
{
    constexpr int64_t kLanes = PackedRhs::kPanel;
    __m512d acc[Rows][Panels];
    for (int r = 0; r < Rows; ++r) {
        for (int p = 0; p < Panels; ++p) {
            acc[r][p] = _mm512_setzero_pd();
        }
    }
    for (int64_t kk = 0; kk < k; ++kk) {
        __m512d w[Panels];
        for (int p = 0; p < Panels; ++p) {
            w[p] = _mm512_loadu_pd(panel + (p * k + kk) * kLanes);
        }
        for (int r = 0; r < Rows; ++r) {
            const __m512d x = _mm512_set1_pd(wide[kk * Rows + r]);
            for (int p = 0; p < Panels; ++p) {
                acc[r][p] = _mm512_fmadd_pd(x, w[p], acc[r][p]);
            }
        }
    }
    for (int r = 0; r < Rows; ++r) {
        for (int p = 0; p < Panels; ++p) {
            const int64_t cols = std::min(kLanes, n_left - p * kLanes);
            float* out = c + r * ldc + p * kLanes;
            // The all-lanes maskz form: GCC 12's _mm512_cvtpd_ps trips
            // -Wuninitialized on its _mm256_undefined_ps source.
            const __m256 lanes = _mm512_maskz_cvtpd_ps(0xFF, acc[r][p]);
            if (cols == kLanes) {
                _mm256_storeu_ps(out, lanes);
                continue;
            }
            alignas(32) float rounded[kLanes];
            _mm256_store_ps(rounded, lanes);
            std::copy_n(rounded, cols, out);
        }
    }
}

/// @p Rows rows of A against all of B: widened once, then run against
/// adjacent panel pairs and a 1-panel tile for an odd last panel.
template <int Rows>
__attribute__((target("avx512f"))) void
Avx512Rows(const float* a, const PackedRhs& b, double* wide, float* c)
{
    constexpr int64_t kLanes = PackedRhs::kPanel;
    const int64_t k = b.Cols();
    const int64_t n = b.Rows();
    WidenRows<Rows>(a, k, wide);
    int64_t j = 0;
    for (; j + kLanes < n; j += 2 * kLanes) {
        Avx512Tile<Rows, 2>(wide, k, b.Panel(j / kLanes), n - j, c + j, n);
    }
    if (j < n) {
        Avx512Tile<Rows, 1>(wide, k, b.Panel(j / kLanes), n - j, c + j, n);
    }
}

/// The AVX-512 kernel: 8 x 16 tiles (16 independent FMA chains), then 4-,
/// 2- and 1-row tiles for the row tails. Calls with m < 4 run avx2_fma's
/// tiles instead: they are mostly m == 1 and bound by reading B, where
/// widening A per call cost more than the wider FMA saved. The widened rows
/// live in a per-call buffer, since shards may call the GEMM concurrently.
__attribute__((target("avx512f"))) void
Avx512Gemm(const float* a, int64_t m, const PackedRhs& b, float* c)
{
    if (m < 4) {
        Avx2FmaGemm(a, m, b, c);
        return;
    }
    const int64_t k = b.Cols();
    const int64_t n = b.Rows();
    std::vector<double> wide(static_cast<size_t>(8 * k));
    int64_t i = 0;
    for (; i + 8 <= m; i += 8) {
        Avx512Rows<8>(a + i * k, b, wide.data(), c + i * n);
    }
    if (i + 4 <= m) {
        Avx512Rows<4>(a + i * k, b, wide.data(), c + i * n);
        i += 4;
    }
    if (i + 2 <= m) {
        Avx512Rows<2>(a + i * k, b, wide.data(), c + i * n);
        i += 2;
    }
    if (i < m) {
        Avx512Rows<1>(a + i * k, b, wide.data(), c + i * n);
    }
}

#endif  // __x86_64__

}  // namespace

namespace detail {

const std::vector<HostGemmKernel>&
HostGemmKernels()
{
    // A function-local static: built once, thread-safely, on first use.
    static const std::vector<HostGemmKernel> kernels = [] {
        std::vector<HostGemmKernel> available = {{"portable", PortableGemm}};
#if defined(__x86_64__)
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
            available.push_back({"avx2_fma", Avx2FmaGemm});
            if (__builtin_cpu_supports("avx512f")) {
                available.push_back({"avx512", Avx512Gemm});
            }
        }
#endif
        return available;
    }();
    return kernels;
}

}  // namespace detail

void
SetMacHook(MacHook hook)
{
    mac_hook = std::move(hook);
}

void
CountMacs(int64_t macs)
{
    if (mac_hook) {
        mac_hook(macs);
    }
}

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
    CountMacs(m * k * n);
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
    CountMacs(m * k * n);
    Tensor c(Shape({m, n}));
    detail::HostGemmKernels().back().fn(a.Data(), m, b, c.Data());
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
AddRowBroadcast(Tensor matrix, const Tensor& row)
{
    DGNN_CHECK(matrix.Rank() == 2 && row.Rank() == 1,
               "AddRowBroadcast expects [m,n] + [n], got ",
               matrix.GetShape().ToString(), " and ", row.GetShape().ToString());
    const int64_t m = matrix.Dim(0);
    const int64_t n = matrix.Dim(1);
    DGNN_CHECK(row.Dim(0) == n, "AddRowBroadcast width mismatch: ", n, " vs ",
               row.Dim(0));
    float* pm = matrix.Data();
    const float* pr = row.Data();
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            pm[i * n + j] += pr[j];
        }
    }
    return matrix;
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
