// Google-benchmark microbenchmarks of the real host kernels behind the
// simulator: GEMM, attention, GRU, SpMM, temporal sampling, t-batching,
// and the device cache's host bookkeeping, plus the sharded cluster's set-up,
// the Normal feature initializer behind dataset generation, the random
// engine, the request-stream generation behind every serving run, and the
// serving loop itself.
// These measure actual wall-clock performance of the numeric substrate
// (unlike the fig/table harnesses, which report simulated device time).

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "cache/device_cache.hpp"
#include "data/temporal_interactions.hpp"
#include "dispatch/dispatcher.hpp"
#include "graph/tbatch.hpp"
#include "graph/temporal_sampler.hpp"
#include "models/fusion_catalog.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "nn/attention.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "nn/rnn_cell.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "shard/sharded_server.hpp"
#include "sim/device_spec.hpp"
#include "sim/fusion.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

using namespace dgnn;

// init::Normal at the Wikipedia-like stream's edge-feature shape, 16384
// events x 172 features: the largest Normal table a dataset generator draws.
void
BM_InitNormal(benchmark::State& state)
{
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(init::Normal(Shape({16384, 172}), rng, 0.3f));
    }
    state.SetItemsProcessed(state.iterations() * 16384 * 172);
}
BENCHMARK(BM_InitNormal)->Unit(benchmark::kMillisecond);

// Raw 64-bit draws: libstdc++'s std::mt19937_64 against dgnn::Mt19937_64,
// which yields the same sequence. Registered per engine by
// RegisterRngEngineBenchmarks.
template <typename Engine>
void
BM_RngEngine(benchmark::State& state)
{
    Engine engine(static_cast<uint64_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine());
    }
    state.SetItemsProcessed(state.iterations());
}

void
RegisterRngEngineBenchmarks()
{
    benchmark::RegisterBenchmark("BM_RngEngine/std_mt19937_64",
                                 BM_RngEngine<std::mt19937_64>)
        ->Arg(1009);
    benchmark::RegisterBenchmark("BM_RngEngine/dgnn", BM_RngEngine<Mt19937_64>)
        ->Arg(1009);
}

// One serving capacity probe's request stream: 100k Poisson requests over
// the gauntlet dataset, with endpoints from trace replay or from community
// churn over eight communities.
void
BM_GenerateRequests(benchmark::State& state, scenario::AccessKind access)
{
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    scenario::Scenario s;
    s.access = access;
    s.poisson_qps = 100000.0;
    s.poisson_seed = 1009;
    s.churn.num_communities = 8;
    s.churn.community_size = dataset.NumNodes() / 8;
    s.churn.churn_every = 512;
    constexpr int64_t kRequests = 100000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(scenario::GenerateRequests(s, dataset, kRequests));
    }
    state.SetItemsProcessed(state.iterations() * kRequests);
}
BENCHMARK_CAPTURE(BM_GenerateRequests, trace_replay, scenario::AccessKind::kTraceReplay)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GenerateRequests, community_churn,
                  scenario::AccessKind::kCommunityChurn)
    ->Unit(benchmark::kMillisecond);

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

// [m,k] x [n,k]^T through one host GEMM kernel, args {m, k, n}, packing B
// on every call as MatMulTransposed(a, b) does. Registered per kernel by
// RegisterHostGemmBenchmarks.
void
BM_MatMulTransposed(benchmark::State& state, ops::detail::HostGemmKernel kernel)
{
    const int64_t m = state.range(0);
    const int64_t k = state.range(1);
    const int64_t n = state.range(2);
    Rng rng(1);
    const Tensor a = init::Normal(Shape({m, k}), rng);
    const Tensor b = init::Normal(Shape({n, k}), rng);
    for (auto _ : state) {
        Tensor c(Shape({m, n}));
        kernel.fn(a.Data(), m, ops::PackRhs(b), c.Data());
        benchmark::DoNotOptimize(c.Data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
    state.SetLabel(kernel.name);
}

// nn::Linear::Forward's work through one kernel, args {m, in, out}: the
// weight is packed once, as Linear does at construction, so the gap to
// BM_MatMulTransposed at the same shape is the cost of packing on every call.
void
BM_LinearForward(benchmark::State& state, ops::detail::HostGemmKernel kernel)
{
    const int64_t m = state.range(0);
    const int64_t in = state.range(1);
    const int64_t out = state.range(2);
    Rng rng(1);
    const nn::Linear layer(in, out, rng);
    const ops::PackedRhs weight = ops::PackRhs(layer.Weight());
    const Tensor x = init::Normal(Shape({m, in}), rng);
    for (auto _ : state) {
        Tensor y(Shape({m, out}));
        kernel.fn(x.Data(), m, weight, y.Data());
        benchmark::DoNotOptimize(ops::AddRowBroadcast(std::move(y), layer.Bias()));
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * in * out);
    state.SetLabel(kernel.name);
}

// Both host GEMM benchmarks run once per kernel this CPU has, each row named
// and labelled with its kernel. The shapes: the square sweep, then the ones
// the models run most (TGAT/TGN feature projection, key/value projection,
// attention scores, the four-row and 945-row projections of the offline
// profile) and the big GCN transform. The last three and {300, 364, 192}
// stand for the offline suite's heaviest GEMM classes (DESIGN section 2):
// m > 512 x 64 x 64, m 65-512 x 64 x 64 and m > 512 x 172 x 64.
void
RegisterHostGemmBenchmarks()
{
    const std::vector<std::vector<int64_t>> matmul_shapes = {
        {32, 32, 32},   {64, 64, 64},  {128, 128, 128}, {1, 172, 64},    {4, 64, 64},
        {10, 64, 64},   {20, 64, 64},  {945, 64, 64},   {1, 64, 64},     {1, 32, 20},
        {300, 364, 192},
        {2048, 64, 64}, {400, 64, 64}, {4096, 172, 64}};
    const std::vector<std::vector<int64_t>> linear_shapes = {
        {1, 172, 64}, {4, 64, 64}, {10, 64, 64}, {945, 64, 64}, {1, 64, 64}, {300, 364, 192}};
    for (const ops::detail::HostGemmKernel& kernel : ops::detail::HostGemmKernels()) {
        const std::string suffix = std::string("/") + kernel.name;
        auto* matmul = benchmark::RegisterBenchmark(
            ("BM_MatMulTransposed" + suffix).c_str(), BM_MatMulTransposed, kernel);
        for (const auto& shape : matmul_shapes) {
            matmul->Args(shape);
        }
        auto* linear = benchmark::RegisterBenchmark(("BM_LinearForward" + suffix).c_str(),
                                                    BM_LinearForward, kernel);
        for (const auto& shape : linear_shapes) {
            linear->Args(shape);
        }
    }
}

/// Q queries over g slots each. Query i owns `distinct` kv rows; its first
/// g - distinct + 1 slots share the first of them, as a sampler's empty
/// slots do. {400, 20, 5} is the offline TGAT batch: 400 targets, 20 slots,
/// about 5 distinct rows each.
void
BM_Attention(benchmark::State& state)
{
    const int64_t queries = state.range(0);
    const int64_t g = state.range(1);
    const int64_t distinct = state.range(2);
    Rng rng(2);
    nn::MultiHeadAttention mha(64, 2, rng);
    const Tensor q = init::Normal(Shape({queries, 64}), rng);
    const Tensor kv = init::Normal(Shape({queries * distinct, 64}), rng);
    std::vector<int64_t> slots;
    for (int64_t i = 0; i < queries; ++i) {
        for (int64_t s = 0; s < g; ++s) {
            slots.push_back(i * distinct + std::max<int64_t>(0, s - (g - distinct)));
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(mha.Forward(q, kv, slots, g));
    }
}
BENCHMARK(BM_Attention)
    ->Args({1, 10, 10})
    ->Args({1, 50, 50})
    ->Args({1, 200, 200})
    ->Args({400, 20, 5});

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

// Endpoint keys of 64 requests (128 keys) drawn from 640 nodes, the
// tgn_cached serving shape; each node id is multiplied by @p stride, so a
// large stride spreads the same batch over a sparse key span.
std::vector<std::vector<int64_t>>
ServingKeyBatches(int64_t stride)
{
    Rng rng(9);
    std::vector<std::vector<int64_t>> batches(256);
    for (std::vector<int64_t>& keys : batches) {
        for (int i = 0; i < 128; ++i) {
            keys.push_back(rng.UniformInt(0, 639) * stride);
        }
    }
    return batches;
}

// cache::SortUnique on one serving batch, arg 0 dense (node ids) or 1
// sparse (span past the bitmap's reach, so it sorts).
void
BM_SortUnique(benchmark::State& state)
{
    const bool sparse = state.range(0) != 0;
    const auto batches = ServingKeyBatches(sparse ? int64_t{1} << 32 : 1);
    std::vector<int64_t> keys;
    size_t i = 0;
    for (auto _ : state) {
        const std::vector<int64_t>& batch = batches[i++ % batches.size()];
        keys.assign(batch.begin(), batch.end());
        cache::SortUnique(keys);
        benchmark::DoNotOptimize(keys.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 128);
    state.SetLabel(sparse ? "sparse" : "dense");
}
BENCHMARK(BM_SortUnique)->Arg(0)->Arg(1);

// DeviceCache::Gather of one serving batch's unique endpoints into a
// 160-row cache over 640 nodes (the tgn_cached shape: ~75 evictions per
// batch).
void
BM_CacheGather(benchmark::State& state)
{
    auto batches = ServingKeyBatches(1);
    for (std::vector<int64_t>& keys : batches) {
        cache::SortUnique(keys);
    }
    cache::DeviceCacheConfig config;
    config.row_bytes = 256;
    config.capacity_bytes = 160 * config.row_bytes;
    cache::DeviceCache device_cache(config);
    int64_t keys_gathered = 0;
    size_t i = 0;
    for (auto _ : state) {
        const std::vector<int64_t>& keys = batches[i++ % batches.size()];
        benchmark::DoNotOptimize(device_cache.Gather(keys));
        keys_gathered += static_cast<int64_t>(keys.size());
    }
    state.SetItemsProcessed(keys_gathered);
}
BENCHMARK(BM_CacheGather);

// JODIE's launch-bound t-batch chain (4 narrow launches -> 1 fused) at
// the given t-batch width, run for the given number of t-batches: one
// t-batch prices the chain alone, more collapse the chain launches into one
// device-side loop (jodie_tbatch_run, a sim::FusedShape::kRun). The parts
// are the serving JODIE's own descriptors (d = 64), weight bytes included,
// and the boundaries are the catalog's. Wall-clock measures the collapse +
// pricing path itself; the counters report what the simulator charges for
// the t-batches fused vs unfused on the GPU spec (sim_speedup is the
// launch-overhead reduction fusion buys) and the weight bytes the run reads
// from its on-chip stash instead of device memory (sim_stashed_bytes).
void
BM_FusedChain(benchmark::State& state)
{
    const int64_t m = state.range(0);      // t-batch rows
    const int64_t steps = state.range(1);  // t-batches in the batch
    const models::JodieConfig config;
    const int64_t d = config.embed_dim;
    Rng rng(1);  // pricing reads only the parameters' shapes
    const nn::RnnCell rnn(d, d, rng);
    const nn::Linear predictor(d, d, rng);
    const models::FusionPlan& plan = *models::FindFusionPlan("jodie_tbatch_fused");
    sim::FusedKernelDesc tbatch;
    tbatch.name = plan.chain;
    tbatch.parts = {models::Jodie::ProjectUserCost(m, d), predictor.Cost("predict_item", m),
                    rnn.Cost("rnn_update", m), rnn.Cost("rnn_update", m)};
    tbatch.intermediate_bytes = plan.boundary_bytes(tbatch.parts, d * 4);

    const sim::DeviceSpec gpu = sim::DeviceSpec::RtxA6000();
    double fused_us = 0.0;
    double unfused_us = 0.0;
    int64_t stashed_bytes = 0;
    for (auto _ : state) {
        const sim::KernelDesc step = sim::Collapse(tbatch);
        if (steps == 1) {
            fused_us = sim::KernelDuration(gpu, step);
        } else {
            const sim::KernelDesc run = sim::Collapse(
                {"jodie_tbatch_run", std::vector<sim::KernelDesc>(static_cast<size_t>(steps), step),
                 std::vector<int64_t>(static_cast<size_t>(steps - 1), 0), sim::FusedShape::kRun});
            fused_us = sim::KernelDuration(gpu, run);
            stashed_bytes = steps * step.bytes - run.bytes;
        }
        unfused_us = static_cast<double>(steps) * sim::UnfusedDuration(gpu, tbatch);
        benchmark::DoNotOptimize(fused_us);
        benchmark::DoNotOptimize(unfused_us);
        benchmark::DoNotOptimize(stashed_bytes);
    }
    state.counters["sim_unfused_us"] = unfused_us;
    state.counters["sim_fused_us"] = fused_us;
    state.counters["sim_speedup"] = unfused_us / fused_us;
    state.counters["sim_stashed_bytes"] = static_cast<double>(stashed_bytes);
}
BENCHMARK(BM_FusedChain)->Args({1, 1})->Args({16, 1})->Args({256, 1})->Args({16, 11});

// shard::Cluster set-up at the tgn_sharded4 shape: 640 nodes (512 users
// + 128 items), 4 shards, greedy partition over a trace of arg requests
// (100k and 200k edges). Times cluster construction plus one routing pass,
// without serving.
void
BM_ShardedSetup(benchmark::State& state)
{
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    models::Tgn tgn(dataset, bench::kServingTgn);
    scenario::Scenario trace;
    trace.name = "sharded-setup";
    trace.poisson_qps = 200000.0;
    trace.poisson_seed = 1009;
    const std::vector<serve::Request> requests =
        scenario::GenerateRequests(trace, dataset, state.range(0));

    shard::ShardedOptions options;
    options.num_shards = 4;
    options.partitioner = shard::PartitionerKind::kGreedy;
    options.cache_config.capacity_bytes =
        dataset.NumNodes() / 4 * tgn.CacheRowBytes();
    for (auto _ : state) {
        const shard::Cluster cluster(tgn, sim::ExecMode::kHybrid,
                                     dataset.NumNodes(), requests, options);
        benchmark::DoNotOptimize(cluster.Route(requests).edge_cut);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShardedSetup)->Arg(100000)->Arg(200000)->Unit(benchmark::kMillisecond);

// Times @p options' serving runs of 20k gauntlet-stream requests at arg
// qps through @p session under TimeoutPolicy(64, 5 ms). The session's
// profiles are captured before timing starts, so a row times the serving
// loop alone.
void
TimeServeRequests(benchmark::State& state,
                  const data::InteractionDataset& dataset,
                  serve::ModelSession& session,
                  const serve::ServerOptions& options)
{
    scenario::Scenario s;
    s.name = "serve-requests";
    s.poisson_qps = static_cast<double>(state.range(0));
    s.poisson_seed = 1009;
    constexpr int64_t kRequests = 20000;
    const std::vector<serve::Request> requests =
        scenario::GenerateRequests(s, dataset, kRequests);
    const auto serve_once = [&] {
        serve::TimeoutPolicy policy(64, 5000.0);
        return serve::ServeRequests(session, policy, requests, options);
    };
    benchmark::DoNotOptimize(serve_once().batches);
    for (auto _ : state) {
        benchmark::DoNotOptimize(serve_once().batches);
    }
    state.SetItemsProcessed(state.iterations() * kRequests);
}

// The tgn_cached shape: a cached TGN session on the pipelined executor
// (50k qps: the loop mostly waits on arrivals; 150k: it mostly dispatches
// full batches).
void
BM_ServeRequests(benchmark::State& state)
{
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    models::Tgn tgn(dataset, bench::kServingTgn);
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = dataset.NumNodes() / 4 * tgn.CacheRowBytes();
    serve::ModelSession session(tgn, sim::ExecMode::kHybrid, 10, cache_config);
    serve::ServerOptions options;
    options.executor = serve::ExecutorKind::kPipelined;
    TimeServeRequests(state, dataset, session, options);
}
BENCHMARK(BM_ServeRequests)->Arg(50000)->Arg(150000)->Unit(benchmark::kMillisecond);

// The tgat_dispatch shape: an uncached TGAT session on the serial executor
// with the hybrid dispatcher (2k qps: every request is sampled alone while
// the host idles; 30k: about half the host's time is idle).
void
BM_ServeRequestsTgatDispatch(benchmark::State& state)
{
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    models::Tgat tgat(dataset, models::TgatConfig{});
    serve::ModelSession session(tgat, sim::ExecMode::kHybrid, 10);
    const dispatch::HybridDispatcher dispatcher;
    serve::ServerOptions options;
    options.executor = serve::ExecutorKind::kSerial;
    options.dispatcher = &dispatcher;
    TimeServeRequests(state, dataset, session, options);
}
BENCHMARK(BM_ServeRequestsTgatDispatch)
    ->Arg(2000)
    ->Arg(30000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int
main(int argc, char** argv)
{
    RegisterHostGemmBenchmarks();
    RegisterRngEngineBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
