// Tests for the device-resident cache: LRU eviction, dirty-row write-back,
// stats accounting, the runtime's cache-aware transfer helpers, and the
// invariant the whole design rests on — the cache reshapes the cost
// model (fewer PCIe bytes) without ever touching numerics.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "support/check.hpp"

#include "cache/device_cache.hpp"
#include "data/temporal_interactions.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "serve/server.hpp"
#include "tensor/random.hpp"
#include "tiny_datasets.hpp"

namespace dgnn {
namespace {

using cache::DeviceCache;
using cache::DeviceCacheConfig;
using cache::GatherResult;
using cache::GatherTrace;
using cache::RowResource;

DeviceCacheConfig
Config(int64_t capacity_rows, int64_t row_bytes = 64)
{
    DeviceCacheConfig config;
    config.capacity_bytes = capacity_rows * row_bytes;
    config.row_bytes = row_bytes;
    return config;
}

// ------------------------------------------------------------- DeviceCache

TEST(DeviceCacheTest, CapacityIsExpressedInBytes)
{
    DeviceCache cache(Config(4, 256));
    EXPECT_TRUE(cache.Enabled());
    EXPECT_EQ(cache.CapacityRows(), 4);
    EXPECT_EQ(cache.RowBytes(), 256);
    EXPECT_EQ(cache.ResidentRows(), 0);

    cache.Gather({1, 2, 3});
    EXPECT_EQ(cache.ResidentRows(), 3);
    EXPECT_EQ(cache.ResidentBytes(), 3 * 256);
}

TEST(DeviceCacheTest, LruEvictsLeastRecentlyTouched)
{
    DeviceCache cache(Config(2));
    cache.Gather({1, 2});  // resident: 1, 2
    cache.Gather({1});     // touch 1 => 2 is now the LRU victim
    const GatherResult g = cache.Gather({3});
    EXPECT_EQ(g.miss_rows, 1);
    EXPECT_TRUE(cache.Contains(1));
    EXPECT_FALSE(cache.Contains(2));
    EXPECT_TRUE(cache.Contains(3));
}

TEST(DeviceCacheTest, DuplicateKeysWithinOneGatherHitAfterFirst)
{
    DeviceCache cache(Config(8));
    const GatherResult g = cache.Gather({5, 5, 5});
    EXPECT_EQ(g.miss_rows, 1);
    EXPECT_EQ(g.hit_rows, 2);
}

TEST(DeviceCacheTest, DirtyRowsOweWritebackOnEviction)
{
    DeviceCache cache(Config(2));
    cache.Gather({1, 2});  // every gathered row is dirty
    // Insert two new rows: both residents leave, and both write back.
    const GatherResult g = cache.Gather({3, 4});
    EXPECT_EQ(g.writeback_rows, 2);
    EXPECT_FALSE(g.evicted_own_row);  // both were the last gather's rows
    EXPECT_EQ(cache.Stats().evictions, 2);
    EXPECT_EQ(cache.Stats().writeback_rows, 2);
}

TEST(DeviceCacheTest, SameBatchEvictionStillOwesWriteback)
{
    // A batch whose unique-row count exceeds capacity: rows inserted and
    // evicted within ONE gather must still pay their write-back — the
    // thrashing case a dirty mark deferred past the gather would silently
    // drop (the updates would simply vanish from the accounting).
    DeviceCache cache(Config(2));
    const GatherResult g = cache.Gather({1, 2, 3, 4, 5});
    EXPECT_EQ(g.miss_rows, 5);
    EXPECT_EQ(g.writeback_rows, 3);  // 1, 2, 3 evicted dirty
    EXPECT_TRUE(g.evicted_own_row);
    EXPECT_EQ(cache.FlushDirty(), 2);  // 4, 5 still resident and dirty
}

TEST(DeviceCacheTest, FlushDirtyCountsAndClears)
{
    DeviceCache cache(Config(3));
    cache.Gather({1, 2, 3});
    EXPECT_EQ(cache.FlushDirty(), 3);
    EXPECT_EQ(cache.FlushDirty(), 0);  // bits cleared

    // A flushed row is the only clean row a cache holds: evicting it owes
    // no write-back...
    cache.Gather({1});  // re-dirties 1; LRU order is now 2, 3, 1
    EXPECT_EQ(cache.Gather({4}).writeback_rows, 0);  // evicts clean 2
    // ...while gathering it again made it dirty again.
    EXPECT_EQ(cache.Gather({5, 6}).writeback_rows, 1);  // evicts 3, dirty 1
    EXPECT_EQ(cache.Stats().evictions, 3);
    EXPECT_EQ(cache.Stats().writeback_rows, 4);
    EXPECT_EQ(cache.FlushDirty(), 3);  // 4, 5 and 6
}

TEST(DeviceCacheTest, DisabledCacheMissesEverythingAndRetainsNothing)
{
    DeviceCache disabled;  // default-constructed
    const GatherResult g = disabled.Gather({1, 2, 1});
    EXPECT_EQ(g.miss_rows, 3);
    EXPECT_EQ(g.hit_rows, 0);
    // Nothing is retained, so every row it gathered writes back.
    EXPECT_EQ(g.writeback_rows, 3);
    EXPECT_TRUE(g.evicted_own_row);
    EXPECT_FALSE(disabled.Enabled());
    EXPECT_EQ(disabled.ResidentRows(), 0);

    DeviceCacheConfig zero;
    zero.capacity_bytes = 0;
    DeviceCache cache(zero);
    EXPECT_FALSE(cache.Enabled());
    EXPECT_EQ(cache.Gather({7}).miss_rows, 1);
    EXPECT_EQ(cache.ResidentRows(), 0);
}

TEST(DeviceCacheTest, StatsAccountBytesAndHitRate)
{
    DeviceCache cache(Config(8, 100));
    cache.Gather({1, 2});
    cache.Gather({1, 2});
    const cache::CacheStats& s = cache.Stats();
    EXPECT_EQ(s.lookups, 4);
    EXPECT_EQ(s.hits, 2);
    EXPECT_EQ(s.misses, 2);
    EXPECT_EQ(s.hit_bytes, 200);
    EXPECT_EQ(s.miss_bytes, 200);
    EXPECT_DOUBLE_EQ(s.HitRate(), 0.5);

    // Delta via operator- (per-run reporting over a shared cache).
    const cache::CacheStats before = s;
    cache.Gather({1});
    const cache::CacheStats delta = cache.Stats() - before;
    EXPECT_EQ(delta.lookups, 1);
    EXPECT_EQ(delta.hits, 1);
}

TEST(DeviceCacheTest, DeterministicHitMissSequenceForSameKeyStream)
{
    auto run = [] {
        Rng rng(123);
        DeviceCache cache(Config(16));
        std::vector<int64_t> sequence;
        for (int i = 0; i < 200; ++i) {
            std::vector<int64_t> keys;
            for (int j = 0; j < 8; ++j) {
                keys.push_back(rng.UniformInt(0, 63));
            }
            const GatherResult g = cache.Gather(keys);
            sequence.push_back(g.hit_rows);
            sequence.push_back(g.miss_rows);
            sequence.push_back(g.writeback_rows);
        }
        return sequence;
    };
    EXPECT_EQ(run(), run());
}

TEST(DeviceCacheTest, InvalidConfigurationsThrow)
{
    DeviceCacheConfig negative;
    negative.capacity_bytes = -1;
    EXPECT_THROW(DeviceCache{negative}, Error);

    DeviceCacheConfig no_row;
    no_row.capacity_bytes = 1024;
    no_row.row_bytes = 0;
    EXPECT_THROW(DeviceCache{no_row}, Error);

    // A positive capacity below one row used to disable the cache silently.
    DeviceCacheConfig under_one_row;
    under_one_row.capacity_bytes = 63;
    under_one_row.row_bytes = 64;
    try {
        (void)DeviceCache{under_one_row};
        FAIL() << "a capacity below one row must throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("cannot hold one 64-byte row"),
                  std::string::npos)
            << e.what();
    }
    under_one_row.capacity_bytes = 64;
    EXPECT_EQ(DeviceCache{under_one_row}.CapacityRows(), 1);
}

// -------------------------------------------------------------- SortUnique

std::vector<int64_t>
ReferenceSortUnique(std::vector<int64_t> keys)
{
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

void
ExpectSortUniqueMatchesReference(std::vector<int64_t> keys)
{
    const std::vector<int64_t> expected = ReferenceSortUnique(keys);
    cache::SortUnique(keys);
    EXPECT_EQ(keys, expected);
}

TEST(SortUniqueTest, EmptySingletonAndAllDuplicateInputs)
{
    ExpectSortUniqueMatchesReference({});
    ExpectSortUniqueMatchesReference({42});
    ExpectSortUniqueMatchesReference({-7});
    ExpectSortUniqueMatchesReference({5, 5, 5, 5});
    ExpectSortUniqueMatchesReference(
        std::vector<int64_t>(300, std::numeric_limits<int64_t>::min()));
}

TEST(SortUniqueTest, DenseServingBatchesMatchSortUnique)
{
    // The serving shape: 64 requests' src and dst, 128 keys in [0, 640).
    Rng rng(2024);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<int64_t> keys;
        for (int i = 0; i < 128; ++i) {
            keys.push_back(rng.UniformInt(0, 639));
        }
        ExpectSortUniqueMatchesReference(keys);
    }
    // Spans past the on-stack bitmap (8192 keys) but still dense.
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<int64_t> keys;
        for (int i = 0; i < 4096; ++i) {
            keys.push_back(rng.UniformInt(-20000, 20000));
        }
        ExpectSortUniqueMatchesReference(keys);
    }
}

TEST(SortUniqueTest, SparseAndNegativeKeysMatchSortUnique)
{
    Rng rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        // Sparse: 64 keys over a span of ~2^40, which takes the sort.
        std::vector<int64_t> sparse;
        for (int i = 0; i < 64; ++i) {
            sparse.push_back(rng.UniformInt(0, 1 << 20) * (int64_t{1} << 20) -
                             (int64_t{1} << 39));
        }
        sparse.push_back(sparse.front());
        ExpectSortUniqueMatchesReference(sparse);

        // Dense negative keys.
        std::vector<int64_t> negative;
        for (int i = 0; i < 100; ++i) {
            negative.push_back(rng.UniformInt(-300, -1));
        }
        ExpectSortUniqueMatchesReference(negative);
    }
}

TEST(SortUniqueTest, KeysAtBothEndsOfTheRangeDoNotOverflow)
{
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    ExpectSortUniqueMatchesReference({kMax, kMin, 0, kMax, kMin, -1, 1});
    ExpectSortUniqueMatchesReference({kMax, kMax - 3, kMax - 1, kMax - 3});
    ExpectSortUniqueMatchesReference({kMin + 2, kMin, kMin + 130, kMin});
    ExpectSortUniqueMatchesReference({kMin, kMax});
}

// --------------------------------------------------- runtime cost surface

TEST(RuntimeCacheTest, GatherChargesMissesToPcieAndHitsToDevice)
{
    sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
    runtime.ResetMeasurementWindow();
    runtime.GatherToDevice(4, 6, 256, "state");
    (void)runtime.Synchronize();

    EXPECT_EQ(runtime.BytesToDevice(), 6 * 256);  // misses only
    EXPECT_EQ(runtime.CacheHitBytes(), 4 * 256);

    bool saw_miss_transfer = false;
    bool saw_hit_kernel = false;
    for (const sim::TraceEvent& e : runtime.GetTrace().Events()) {
        if (e.kind == sim::EventKind::kTransfer &&
            e.name == "state:cache_miss_h2d") {
            saw_miss_transfer = true;
        }
        if (e.kind == sim::EventKind::kKernel &&
            e.name == "state:cache_hit_gather") {
            saw_hit_kernel = true;
        }
    }
    EXPECT_TRUE(saw_miss_transfer);
    EXPECT_TRUE(saw_hit_kernel);

    runtime.WriteBackToHost(3, 256, "state");
    EXPECT_EQ(runtime.BytesToHost(), 3 * 256);
}

TEST(RuntimeCacheTest, CpuOnlyModeIsANoOp)
{
    sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kCpuOnly);
    runtime.ResetMeasurementWindow();
    const sim::SimTime before = runtime.Now();
    runtime.GatherToDevice(4, 6, 256, "state");
    runtime.GatherHits(4, 256, "state");
    runtime.WriteBackToHost(3, 256, "state");
    EXPECT_DOUBLE_EQ(runtime.Now(), before);
    EXPECT_EQ(runtime.BytesToDevice(), 0);
    EXPECT_EQ(runtime.BytesToHost(), 0);
    EXPECT_EQ(runtime.CacheHitBytes(), 0);
}

// ------------------------------------------------------------ model level

data::InteractionDataset
TinyInteractions()
{
    data::InteractionSpec spec;
    spec.name = "tiny";
    spec.num_users = 24;
    spec.num_items = 12;
    spec.num_events = 512;
    spec.edge_feature_dim = 8;
    spec.repeat_prob = 0.8;
    spec.seed = 5;
    return data::GenerateInteractions(spec);
}

models::RunConfig
HybridRun(int64_t cache_capacity_bytes)
{
    models::RunConfig run;
    run.mode = sim::ExecMode::kHybrid;
    run.batch_size = 64;
    run.num_neighbors = 4;
    run.cache.capacity_bytes = cache_capacity_bytes;
    return run;
}

TEST(ModelCacheTest, TgnCachePreservesNumericsAndReducesTransfers)
{
    const auto ds = TinyInteractions();
    const models::TgnConfig config{16, 16, 2, 11};

    models::Tgn uncached_model(ds, config);
    sim::Runtime r1 = models::MakeRuntime(sim::ExecMode::kHybrid);
    const models::RunResult uncached =
        uncached_model.RunInference(r1, HybridRun(0));

    models::Tgn cached_model(ds, config);
    sim::Runtime r2 = models::MakeRuntime(sim::ExecMode::kHybrid);
    const models::RunResult cached = cached_model.RunInference(
        r2, HybridRun(ds.NumNodes() * cached_model.CacheRowBytes()));

    // The cache must never change the math.
    EXPECT_DOUBLE_EQ(cached.output_checksum, uncached.output_checksum);
    // ...while strictly shrinking both PCIe directions on a recurrent
    // stream (memory rows stay resident; sync-back becomes evictions).
    EXPECT_LT(cached.h2d_bytes, uncached.h2d_bytes);
    EXPECT_LT(cached.d2h_bytes, uncached.d2h_bytes);
    EXPECT_GT(cached.cache_stats.hits, 0);
    EXPECT_EQ(cached.cache_hit_bytes, cached.cache_stats.hit_bytes);
    EXPECT_EQ(uncached.cache_stats.lookups, 0);
}

TEST(ModelCacheTest, JodieCachePreservesNumericsAndReducesTransfers)
{
    const auto ds = TinyInteractions();
    const models::JodieConfig config{16, 13};

    models::Jodie uncached_model(ds, config);
    sim::Runtime r1 = models::MakeRuntime(sim::ExecMode::kHybrid);
    const models::RunResult uncached =
        uncached_model.RunInference(r1, HybridRun(0));

    models::Jodie cached_model(ds, config);
    sim::Runtime r2 = models::MakeRuntime(sim::ExecMode::kHybrid);
    const models::RunResult cached = cached_model.RunInference(
        r2, HybridRun(ds.NumNodes() * cached_model.CacheRowBytes()));

    EXPECT_DOUBLE_EQ(cached.output_checksum, uncached.output_checksum);
    EXPECT_LT(cached.h2d_bytes, uncached.h2d_bytes);
    EXPECT_LT(cached.d2h_bytes, uncached.d2h_bytes);
    EXPECT_GT(cached.cache_stats.hits, 0);
}

TEST(ModelCacheTest, CpuOnlyRunBypassesTheCacheUntouched)
{
    const auto ds = TinyInteractions();
    const models::TgnConfig config{16, 16, 2, 11};

    auto run_cpu = [&](int64_t capacity_rows) {
        models::Tgn model(ds, config);
        sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kCpuOnly);
        models::RunConfig run;
        run.mode = sim::ExecMode::kCpuOnly;
        run.batch_size = 64;
        run.num_neighbors = 4;
        run.cache.capacity_bytes = capacity_rows * model.CacheRowBytes();
        return model.RunInference(runtime, run);
    };
    const models::RunResult without = run_cpu(0);
    const models::RunResult with = run_cpu(ds.NumNodes());

    // A configured cache must leave a CPU-only run bit-identical.
    EXPECT_EQ(models::RenderRun(with), models::RenderRun(without));
    EXPECT_EQ(with.h2d_bytes, 0);
    EXPECT_EQ(with.cache_stats.lookups, 0);

    // So must it leave a hybrid TGAT run: its feature rows are read-only
    // and the whole table stays resident, so the cache has nothing to hold.
    auto run_tgat = [&](int64_t capacity_rows) {
        models::Tgat model(ds, models::TgatConfig{16, 2, 1, 4, 7});
        sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
        return models::RenderRun(model.RunInference(
            runtime, HybridRun(capacity_rows * model.CacheRowBytes())));
    };
    EXPECT_EQ(run_tgat(ds.NumNodes()), run_tgat(0));
}

TEST(ModelCacheTest, CachedRunsAreDeterministic)
{
    const auto ds = TinyInteractions();
    auto run_once = [&] {
        models::Tgn model(ds, models::TgnConfig{16, 16, 2, 11});
        sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
        return model.RunInference(
            runtime, HybridRun(ds.NumNodes() / 2 * model.CacheRowBytes()));
    };
    const models::RunResult a = run_once();
    const models::RunResult b = run_once();
    EXPECT_DOUBLE_EQ(a.output_checksum, b.output_checksum);
    EXPECT_DOUBLE_EQ(a.total_us, b.total_us);
    EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
    EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
    EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
    EXPECT_EQ(a.cache_stats.evictions, b.cache_stats.evictions);
}

// ---------------------------------------------------------------- serving

TEST(ServingCacheTest, WarmCacheLowersH2dAndStaysWarmAcrossBatches)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    const auto requests = serve::TraceRequests(ds.stream, 50000.0, 256);

    serve::ServerOptions options;
    options.executor = serve::ExecutorKind::kSerial;

    serve::ModelSession uncached(tgn, sim::ExecMode::kHybrid, 4);
    serve::FixedSizePolicy p1(32);
    const serve::ServingReport base =
        serve::ServeRequests(uncached, p1, requests, options);

    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = ds.NumNodes() * tgn.CacheRowBytes();
    serve::ModelSession cached(tgn, sim::ExecMode::kHybrid, 4, cache_config);
    EXPECT_TRUE(cached.CacheEnabled());
    serve::FixedSizePolicy p2(32);
    const serve::ServingReport warm =
        serve::ServeRequests(cached, p2, requests, options);

    EXPECT_EQ(warm.requests, base.requests);
    EXPECT_LT(warm.h2d_bytes, base.h2d_bytes);
    // Recurrent trace nodes must hit across batches — the cross-batch
    // locality the offline path cannot express.
    EXPECT_GT(warm.cache_stats.hits, 0);
    EXPECT_GT(warm.cache_hit_bytes, 0);
    EXPECT_EQ(base.cache_stats.lookups, 0);

    // A second serving run over the same session starts WARM: strictly
    // more hits than the cold first run.
    serve::FixedSizePolicy p3(32);
    const serve::ServingReport second =
        serve::ServeRequests(cached, p3, requests, options);
    EXPECT_GT(second.cache_stats.hits, warm.cache_stats.hits);
    EXPECT_LT(second.h2d_bytes, warm.h2d_bytes);
}

TEST(ServingCacheTest, CachedServingIsDeterministic)
{
    const auto ds = TinyInteractions();
    const auto requests = serve::TraceRequests(ds.stream, 50000.0, 200);
    auto run_once = [&] {
        models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
        cache::DeviceCacheConfig cache_config;
        cache_config.capacity_bytes =
            ds.NumNodes() / 2 * tgn.CacheRowBytes();
        serve::ModelSession session(tgn, sim::ExecMode::kHybrid, 4,
                                    cache_config);
        serve::FixedSizePolicy policy(32);
        serve::ServerOptions options;
        return serve::ServeRequests(session, policy, requests, options);
    };
    const serve::ServingReport a = run_once();
    const serve::ServingReport b = run_once();
    EXPECT_DOUBLE_EQ(a.latency.P99(), b.latency.P99());
    EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
    EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
    EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
}

TEST(ServingCacheTest, ReadOnlyRowsServeUncached)
{
    // TGAT's per-node rows are read-only features whose table stays
    // resident, so only mutable state is cached. The session must serve
    // uncached (full transfer volume in the profile) whatever capacity it
    // is given.
    const auto ds = TinyInteractions();
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 1, 4, 7});
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = ds.NumNodes() * tgat.CacheRowBytes();
    serve::ModelSession session(tgat, sim::ExecMode::kHybrid, 4, cache_config);
    EXPECT_FALSE(session.CacheEnabled());
    const serve::BatchProfile& p = session.Profile(16);
    EXPECT_EQ(p.state_rows, 0);
    EXPECT_GT(p.h2d_bytes, 0);
}

TEST(ServingCacheTest, CpuOnlySessionBypassesTheCache)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = ds.NumNodes() * tgn.CacheRowBytes();
    serve::ModelSession session(tgn, sim::ExecMode::kCpuOnly, 4, cache_config);
    EXPECT_FALSE(session.CacheEnabled());

    const auto requests = serve::TraceRequests(ds.stream, 2000.0, 64);
    serve::TimeoutPolicy policy(16, 3000.0);
    serve::ServerOptions options;
    const serve::ServingReport report =
        serve::ServeRequests(session, policy, requests, options);
    EXPECT_EQ(report.requests, 64);
    EXPECT_EQ(report.h2d_bytes, 0);
    EXPECT_EQ(report.cache_stats.lookups, 0);
}

TEST(ServingCacheTest, MixedBlindBatchesStillChargeBlindStateMovement)
{
    // A batch mixing node-bearing and node-blind requests must charge the
    // blind requests' share of state movement (pro-rated all-miss), not
    // silently drop it because SOME requests carried nodes.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = ds.NumNodes() * tgn.CacheRowBytes();

    auto serve_with = [&](bool blind_half) {
        models::Tgn model(ds, models::TgnConfig{16, 16, 2, 11});
        serve::ModelSession session(model, sim::ExecMode::kHybrid, 4,
                                    cache_config);
        auto requests = serve::TraceRequests(ds.stream, 50000.0, 128);
        if (blind_half) {
            for (size_t i = 0; i < requests.size(); i += 2) {
                requests[i].src = -1;
                requests[i].dst = -1;
            }
        }
        serve::FixedSizePolicy policy(32);
        serve::ServerOptions options;
        options.executor = serve::ExecutorKind::kSerial;
        return serve::ServeRequests(session, policy, requests, options);
    };
    const serve::ServingReport full = serve_with(false);
    const serve::ServingReport mixed = serve_with(true);

    // Blind requests all-miss while their node-bearing twins could have
    // hit: the mixed run must move at least as many H2D bytes as the
    // fully node-bearing one, and its cache sees only half the lookups.
    EXPECT_GE(mixed.h2d_bytes, full.h2d_bytes);
    EXPECT_LT(mixed.cache_stats.lookups, full.cache_stats.lookups);
    EXPECT_GT(mixed.cache_stats.lookups, 0);
}

// ----------------------------------------- randomized invariant checking

/// Independent reference model of the DeviceCache contract, built on a
/// vector recency order and an ordered map (not the cache's slot pool and
/// hash table) so a shared bug can't hide in a shared data structure.
/// Victim = front of `order`; a touch moves its row to the back and marks
/// it dirty. It numbers residency generations itself and records the
/// resource names a GatherTrace must hold. `episodes` counts clean->dirty
/// transitions (an insertion, or a touch of a flushed row) — the
/// conservation law says every such episode is paid for by exactly one
/// write-back (dirty eviction, mid-run flush, or the final flush), so after
/// a final FlushDirty, writebacks == episodes.
struct ReferenceCache {
    struct Row {
        int64_t generation = 0;
        bool dirty = false;
    };

    int64_t capacity_rows = 0;
    std::vector<int64_t> order;
    std::map<int64_t, Row> rows;
    int64_t next_generation = 0;
    GatherTrace trace;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    int64_t writebacks = 0;
    int64_t episodes = 0;

    void Touch(int64_t key)
    {
        const auto it = rows.find(key);
        if (it != rows.end()) {
            ++hits;
            trace.hit_rows.push_back(RowResource(key, it->second.generation));
            if (!it->second.dirty) {
                it->second.dirty = true;
                ++episodes;
            }
            order.erase(std::find(order.begin(), order.end(), key));
            order.push_back(key);
            return;
        }
        ++misses;
        if (capacity_rows == 0) {
            // Mutated but unretainable: a degenerate dirty episode, opened
            // and paid for in the same lookup.
            ++writebacks;
            ++episodes;
            return;
        }
        while (static_cast<int64_t>(order.size()) >= capacity_rows) {
            const int64_t victim = order.front();
            order.erase(order.begin());
            const Row& row = rows.at(victim);
            if (row.dirty) {
                ++writebacks;
                trace.evicted_dirty_rows.push_back(
                    RowResource(victim, row.generation));
            }
            rows.erase(victim);
            ++evictions;
        }
        const int64_t generation = next_generation++;
        order.push_back(key);
        rows.emplace(key, Row{generation, true});
        trace.inserted_rows.push_back(RowResource(key, generation));
        ++insertions;
        ++episodes;
    }

    /// Clears every dirty bit; returns the flushed rows' resource names in
    /// ascending key order.
    std::vector<std::string> Flush()
    {
        std::vector<std::string> names;
        for (auto& [key, row] : rows) {
            if (row.dirty) {
                row.dirty = false;
                names.push_back(RowResource(key, row.generation));
            }
        }
        writebacks += static_cast<int64_t>(names.size());
        return names;
    }
};

/// Where a trial draws its keys. Both draw most keys from a hot pool
/// ~1.5x capacity (real eviction churn), the rest from 500 cold ones.
enum class KeyDraw {
    kDense,   ///< node ids in [0, 500)
    kSparse,  ///< the same ids scattered over all of int64, plus both ends
};

void
RunRandomizedCacheTrial(const DeviceCacheConfig& config, uint64_t seed,
                        int64_t num_ops, KeyDraw key_draw = KeyDraw::kDense)
{
    DeviceCache cache(config);
    const int64_t row_bytes = cache.RowBytes();
    ReferenceCache ref;
    ref.capacity_rows = cache.CapacityRows();

    Rng rng(seed);
    const int64_t hot_pool =
        std::clamp<int64_t>(cache.CapacityRows(), 1, 32) * 3 / 2;
    auto draw_key = [&]() -> int64_t {
        const int64_t id = rng.Bernoulli(0.7) ? rng.UniformInt(0, hot_pool)
                                              : rng.UniformInt(0, 499);
        if (key_draw == KeyDraw::kDense) {
            return id;
        }
        if (id == 0) {
            return std::numeric_limits<int64_t>::min();
        }
        if (id == 1) {
            return std::numeric_limits<int64_t>::max();
        }
        return static_cast<int64_t>(static_cast<uint64_t>(id) *
                                    0xD1B54A32D192ED03ULL);
    };

    GatherTrace trace;
    for (int64_t op = 0; op < num_ops; ++op) {
        // Every other operation requests the trace and the flushed names.
        const bool observe = op % 2 == 0;
        const int64_t kind = rng.UniformInt(0, 19);
        if (kind < 16) {  // Gather
            const int64_t batch = rng.UniformInt(1, 12);
            std::vector<int64_t> keys;
            for (int64_t i = 0; i < batch; ++i) {
                keys.push_back(draw_key());  // duplicates allowed on purpose
            }
            trace = GatherTrace{};
            const GatherResult result =
                cache.Gather(keys, observe ? &trace : nullptr);
            const int64_t hits_before = ref.hits;
            const int64_t misses_before = ref.misses;
            const int64_t writebacks_before = ref.writebacks;
            ref.trace = GatherTrace{};
            for (const int64_t key : keys) {
                ref.Touch(key);
            }
            ASSERT_EQ(result.hit_rows, ref.hits - hits_before);
            ASSERT_EQ(result.miss_rows, ref.misses - misses_before);
            ASSERT_EQ(result.writeback_rows,
                      ref.writebacks - writebacks_before);
            if (observe) {
                ASSERT_EQ(trace.hit_rows, ref.trace.hit_rows);
                ASSERT_EQ(trace.inserted_rows, ref.trace.inserted_rows);
                ASSERT_EQ(trace.evicted_dirty_rows,
                          ref.trace.evicted_dirty_rows);
                // A row this gather touched and then evicted shows up in
                // its trace twice: touched, and evicted dirty. A disabled
                // cache names no rows, and every row it writes back is one
                // of this gather's.
                std::set<std::string> touched(trace.hit_rows.begin(),
                                              trace.hit_rows.end());
                touched.insert(trace.inserted_rows.begin(),
                               trace.inserted_rows.end());
                const bool evicted_own_row =
                    cache.Enabled()
                        ? std::any_of(trace.evicted_dirty_rows.begin(),
                                      trace.evicted_dirty_rows.end(),
                                      [&](const std::string& name) {
                                          return touched.count(name) > 0;
                                      })
                        : result.writeback_rows > 0;
                ASSERT_EQ(result.evicted_own_row, evicted_own_row);
            }
        } else if (kind < 18) {  // mid-run flush: its rows turn clean
            const std::vector<std::string> expected = ref.Flush();
            std::vector<std::string> names;
            ASSERT_EQ(cache.FlushDirty(observe ? &names : nullptr),
                      static_cast<int64_t>(expected.size()));
            if (observe) {
                ASSERT_EQ(names, expected);
            }
        } else {  // probe Contains on a sample key
            const int64_t key = draw_key();
            ASSERT_EQ(cache.Contains(key), ref.rows.count(key) > 0);
        }

        // Hard invariants after EVERY operation.
        ASSERT_LE(cache.ResidentRows(), cache.CapacityRows());
        ASSERT_EQ(cache.ResidentRows(),
                  static_cast<int64_t>(ref.order.size()));
        ASSERT_EQ(cache.ResidentBytes(), cache.ResidentRows() * row_bytes);
        const cache::CacheStats& stats = cache.Stats();
        ASSERT_EQ(stats.hits, ref.hits);
        ASSERT_EQ(stats.misses, ref.misses);
        ASSERT_EQ(stats.lookups, ref.hits + ref.misses);
        ASSERT_EQ(stats.insertions, ref.insertions);
        ASSERT_EQ(stats.evictions, ref.evictions);
        ASSERT_EQ(stats.writeback_rows, ref.writebacks);
        ASSERT_EQ(stats.hit_bytes, ref.hits * row_bytes);
        ASSERT_EQ(stats.miss_bytes, ref.misses * row_bytes);
    }

    // Recency/eviction order must agree exactly, not just in cardinality:
    // every reference-resident key is resident in the cache too.
    for (const int64_t key : ref.order) {
        EXPECT_TRUE(cache.Contains(key));
    }

    // Conservation: drain the dirty set; every clean->dirty episode must
    // have paid exactly one write-back by now — no lost or double syncs.
    std::vector<std::string> names;
    ASSERT_EQ(cache.FlushDirty(&names),
              static_cast<int64_t>(ref.Flush().size()));
    EXPECT_EQ(cache.Stats().writeback_rows, ref.episodes);
    EXPECT_EQ(cache.FlushDirty(), 0);  // idempotent once drained
}

TEST(DeviceCacheRandomizedTest, LruMatchesReferenceModelOverRandomOps)
{
    RunRandomizedCacheTrial(Config(32), 12345, 3000);
}

TEST(DeviceCacheRandomizedTest, TinyAndDisabledCapacitiesStayConsistent)
{
    // Capacity 1 maximizes eviction churn; capacity 0 exercises the
    // unretained-dirty write-back path on every miss.
    RunRandomizedCacheTrial(Config(1), 99, 1500);
    RunRandomizedCacheTrial(Config(0), 97, 1500);
}

TEST(DeviceCacheRandomizedTest, SparseAndNegativeKeysMatchReferenceModel)
{
    // Keys hashed from all over int64 (both ends included) collide in the
    // index's probe runs; evictions delete from the middle of those runs.
    RunRandomizedCacheTrial(Config(32), 4242, 3000, KeyDraw::kSparse);
    RunRandomizedCacheTrial(Config(3), 7, 1500, KeyDraw::kSparse);
}

TEST(DeviceCacheRandomizedTest, UnboundedCacheGrowsWithResidentRows)
{
    // No eviction ever: the index grows from empty to every drawn key.
    RunRandomizedCacheTrial(DeviceCacheConfig::Unbounded(64), 31, 3000);
    RunRandomizedCacheTrial(DeviceCacheConfig::Unbounded(64), 13, 3000,
                            KeyDraw::kSparse);
}

TEST(ServingCacheTest, NodeBlindArrivalsFallBackToProbeStateVolume)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = ds.NumNodes() * tgn.CacheRowBytes();
    serve::ModelSession session(tgn, sim::ExecMode::kHybrid, 4, cache_config);

    // Timestamp-only arrivals carry no node ids: the cache cannot resolve
    // hits, but the state movement must still be charged (all-miss).
    const auto arrivals = serve::PoissonArrivals(2000.0, 64, 7);
    serve::TimeoutPolicy policy(16, 3000.0);
    serve::ServerOptions options;
    const serve::ServingReport report =
        serve::Serve(session, policy, arrivals, options);
    EXPECT_EQ(report.cache_stats.lookups, 0);
    EXPECT_GT(report.h2d_bytes, 0);
}

}  // namespace
}  // namespace dgnn
