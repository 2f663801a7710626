// Google-benchmark microbenchmarks of the real host kernels behind the
// simulator: GEMM, attention, GRU, SpMM, temporal sampling, t-batching.
// These measure actual wall-clock performance of the numeric substrate
// (unlike the fig/table harnesses, which report simulated device time).

#include <benchmark/benchmark.h>

#include "data/temporal_interactions.hpp"
#include "graph/tbatch.hpp"
#include "graph/temporal_sampler.hpp"
#include "nn/attention.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "nn/rnn_cell.hpp"
#include "sim/device_spec.hpp"
#include "sim/fusion.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

using namespace dgnn;

void
BM_MatMul(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    const Tensor a = init::Normal(Shape({n, n}), rng);
    const Tensor b = init::Normal(Shape({n, n}), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::MatMul(a, b));
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// [m,k] x [n,k]^T, args {m, k, n}, packing B on every call: the square
// sweep, then the shapes the models run most (TGAT/TGN feature projection,
// key/value projection, attention scores) and BM_LinearForward's shapes.
void
BM_MatMulTransposed(benchmark::State& state)
{
    const int64_t m = state.range(0);
    const int64_t k = state.range(1);
    const int64_t n = state.range(2);
    Rng rng(1);
    const Tensor a = init::Normal(Shape({m, k}), rng);
    const Tensor b = init::Normal(Shape({n, k}), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops::MatMulTransposed(a, b));
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
BENCHMARK(BM_MatMulTransposed)
    ->Args({32, 32, 32})
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({1, 172, 64})
    ->Args({10, 64, 64})
    ->Args({20, 64, 64})
    ->Args({1, 64, 64})
    ->Args({1, 32, 20})
    ->Args({300, 364, 192});

// nn::Linear::Forward, args {m, in, out}: the weight is packed once at
// construction, so the gap to BM_MatMulTransposed at the same shape is the
// cost of packing on every call.
void
BM_LinearForward(benchmark::State& state)
{
    const int64_t m = state.range(0);
    const int64_t in = state.range(1);
    const int64_t out = state.range(2);
    Rng rng(1);
    const nn::Linear layer(in, out, rng);
    const Tensor x = init::Normal(Shape({m, in}), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(layer.Forward(x));
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * in * out);
}
BENCHMARK(BM_LinearForward)
    ->Args({1, 172, 64})
    ->Args({10, 64, 64})
    ->Args({1, 64, 64})
    ->Args({300, 364, 192});

void
BM_Attention(benchmark::State& state)
{
    const int64_t k = state.range(0);
    Rng rng(2);
    nn::MultiHeadAttention mha(64, 2, rng);
    const Tensor q = init::Normal(Shape({1, 64}), rng);
    const Tensor kv = init::Normal(Shape({k, 64}), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(mha.Forward(q, kv, kv));
    }
}
BENCHMARK(BM_Attention)->Arg(10)->Arg(50)->Arg(200);

void
BM_GruCell(benchmark::State& state)
{
    const int64_t batch = state.range(0);
    Rng rng(3);
    nn::GruCell cell(64, 64, rng);
    const Tensor x = init::Normal(Shape({batch, 64}), rng);
    const Tensor h = init::Normal(Shape({batch, 64}), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cell.Forward(x, h));
    }
}
BENCHMARK(BM_GruCell)->Arg(1)->Arg(64)->Arg(512);

void
BM_Spmm(benchmark::State& state)
{
    const int64_t n = state.range(0);
    Rng rng(4);
    nn::SparseMatrix a;
    a.n = n;
    a.row_offsets.resize(static_cast<size_t>(n) + 1);
    for (int64_t i = 0; i < n; ++i) {
        a.row_offsets[static_cast<size_t>(i) + 1] =
            a.row_offsets[static_cast<size_t>(i)] + 8;
        for (int64_t e = 0; e < 8; ++e) {
            a.col_indices.push_back(rng.UniformInt(0, n - 1));
            a.values.push_back(1.0f / 8.0f);
        }
    }
    const Tensor x = init::Normal(Shape({n, 64}), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(nn::Spmm(a, x));
    }
    state.SetItemsProcessed(state.iterations() * n * 8 * 64 * 2);
}
BENCHMARK(BM_Spmm)->Arg(256)->Arg(1024)->Arg(4096);

void
BM_TemporalSampling(benchmark::State& state)
{
    const int64_t k = state.range(0);
    data::InteractionSpec spec;
    spec.num_users = 500;
    spec.num_items = 200;
    spec.num_events = 20000;
    spec.edge_feature_dim = 2;
    const auto ds = data::GenerateInteractions(spec);
    graph::TemporalAdjacency adj(ds.stream);
    graph::TemporalNeighborSampler sampler(adj, graph::SamplingStrategy::kUniform,
                                           7);
    const double t_query = ds.stream.EndTime();
    int64_t node = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sampler.Sample(node % 500, t_query, k));
        ++node;
    }
}
BENCHMARK(BM_TemporalSampling)->Arg(10)->Arg(50)->Arg(300);

void
BM_TBatchBuild(benchmark::State& state)
{
    const int64_t events = state.range(0);
    data::InteractionSpec spec;
    spec.num_users = 500;
    spec.num_items = 200;
    spec.num_events = events;
    spec.edge_feature_dim = 2;
    const auto ds = data::GenerateInteractions(spec);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            graph::BuildTBatches(ds.stream, 0, ds.stream.NumEvents()));
    }
    state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_TBatchBuild)->Arg(1000)->Arg(10000);

// A JODIE-style launch-bound t-batch chain (4 narrow launches -> 1 fused)
// at the given t-batch width. Wall-clock measures the collapse + pricing
// path itself; the counters report what the simulator charges for the chain
// fused vs unfused on the GPU spec (sim_speedup is the launch-overhead
// reduction the fusion layer buys per t-batch).
void
BM_FusedChain(benchmark::State& state)
{
    const int64_t m = state.range(0);  // t-batch rows
    const int64_t d = 64;              // embed dim
    sim::FusedKernelDesc fused;
    fused.name = "jodie_tbatch_fused";
    fused.parts = {
        {"project_user", m * d, m * d * 8, m, false},
        {"predict_item", 2 * m * d * d, m * d * 8, m, false},
        {"rnn_update", 6 * m * d * d, m * d * 12, m, false},
        {"rnn_update", 6 * m * d * d, m * d * 12, m, false},
    };
    fused.intermediate_bytes = {m * d * 4, 0, 0};

    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    double fused_us = 0.0;
    double unfused_us = 0.0;
    for (auto _ : state) {
        fused_us = sim::FusedDuration(gpu, fused);
        unfused_us = sim::UnfusedDuration(gpu, fused);
        benchmark::DoNotOptimize(fused_us);
        benchmark::DoNotOptimize(unfused_us);
    }
    state.counters["sim_unfused_us"] = unfused_us;
    state.counters["sim_fused_us"] = fused_us;
    state.counters["sim_speedup"] = unfused_us / fused_us;
}
BENCHMARK(BM_FusedChain)->Arg(1)->Arg(16)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
