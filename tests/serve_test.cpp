// Tests for the online-serving subsystem: arrival generators, dynamic
// batching policies, batch-cost capture, the serial vs pipelined
// executors, the serving loop, and the capacity search.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"

#include "data/temporal_interactions.hpp"
#include "dispatch/dispatcher.hpp"
#include "models/jodie.hpp"
#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "shard/sharded_server.hpp"
#include "tensor/random.hpp"

// The serving benches' stream and TGN.
#include "../bench/bench_common.hpp"
#include "serving_reports.hpp"

namespace dgnn::serve {
namespace {

data::InteractionDataset
TinyInteractions()
{
    data::InteractionSpec spec;
    spec.name = "tiny";
    spec.num_users = 20;
    spec.num_items = 12;
    spec.num_events = 400;
    spec.edge_feature_dim = 8;
    spec.seed = 5;
    return data::GenerateInteractions(spec);
}

// ---------------------------------------------------------------- arrivals

TEST(ArrivalsTest, PoissonIsDeterministicSortedAndRateMatched)
{
    const auto a = PoissonArrivals(1000.0, 2000, 7);
    const auto b = PoissonArrivals(1000.0, 2000, 7);
    ASSERT_EQ(a.size(), 2000u);
    EXPECT_EQ(a, b);  // bit-identical for a fixed seed
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    // Mean inter-arrival of 1000 qps is 1000 us; LLN puts the empirical
    // mean well within 10% at n = 2000.
    const double mean_gap = a.back() / static_cast<double>(a.size());
    EXPECT_NEAR(mean_gap, 1000.0, 100.0);

    const auto c = PoissonArrivals(1000.0, 2000, 8);
    EXPECT_NE(a, c);  // seed matters
}

TEST(ArrivalsTest, TraceReplayRescalesToTargetRate)
{
    const auto ds = TinyInteractions();
    const auto arrivals = TraceArrivals(ds.stream, 500.0, 300);
    ASSERT_EQ(arrivals.size(), 300u);
    EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
    // Rescaling makes the mean gap hit the target rate exactly.
    const double mean_gap = arrivals.back() / 300.0;
    EXPECT_NEAR(mean_gap, 1e6 / 500.0, 1e-6);
}

TEST(ArrivalsTest, InvalidParametersThrow)
{
    EXPECT_THROW(PoissonArrivals(0.0, 10, 1), Error);
    EXPECT_THROW(PoissonArrivals(100.0, -1, 1), Error);
    const auto ds = TinyInteractions();
    EXPECT_THROW(TraceArrivals(ds.stream, -5.0, 10), Error);
}

TEST(ArrivalsTest, TraceRequestsCarryEndpoints)
{
    const auto ds = TinyInteractions();
    const auto requests = TraceRequests(ds.stream, 500.0, 100);
    const auto arrivals = TraceArrivals(ds.stream, 500.0, 100);
    ASSERT_EQ(requests.size(), arrivals.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        const graph::TemporalEvent& e =
            ds.stream.Event(static_cast<int64_t>(i) % ds.stream.NumEvents());
        EXPECT_EQ(requests[i].id, static_cast<int64_t>(i));
        EXPECT_EQ(requests[i].arrival_us, arrivals[i]);
        EXPECT_EQ(requests[i].src, e.src);
        EXPECT_EQ(requests[i].dst, e.dst);
        EXPECT_GE(requests[i].src, 0);  // replay is node-bearing
    }
    EXPECT_THROW(TraceRequests(ds.stream, 0.0, 10), Error);
}

// ---------------------------------------------------------------- policies

std::deque<Request>
QueueOf(std::initializer_list<double> arrivals)
{
    std::deque<Request> q;
    int64_t id = 0;
    for (const double t : arrivals) {
        q.push_back(Request{id++, t});
    }
    return q;
}

TEST(BatchPolicyTest, FixedSizeWaitsForFullBatch)
{
    FixedSizePolicy policy(4);
    const auto three = QueueOf({0.0, 1.0, 2.0});
    EXPECT_EQ(policy.Decide(three, 10.0, false).dispatch, 0);
    // Flushes leftovers once the stream ends.
    EXPECT_EQ(policy.Decide(three, 10.0, true).dispatch, 3);

    const auto five = QueueOf({0.0, 1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(policy.Decide(five, 10.0, false).dispatch, 4);
}

TEST(BatchPolicyTest, TimeoutDispatchesWhenOldestExpires)
{
    TimeoutPolicy policy(8, 100.0);
    const auto queue = QueueOf({50.0, 60.0});
    // Before the deadline: wait, and wake exactly at it.
    const BatchDecision wait = policy.Decide(queue, 100.0, false);
    EXPECT_EQ(wait.dispatch, 0);
    EXPECT_DOUBLE_EQ(wait.wake_us, 150.0);
    // At/after the deadline: flush the queue.
    EXPECT_EQ(policy.Decide(queue, 150.0, false).dispatch, 2);
    // A full batch dispatches regardless of age.
    const auto full = QueueOf({0, 1, 2, 3, 4, 5, 6, 7, 8});
    EXPECT_EQ(policy.Decide(full, 2.0, false).dispatch, 8);
}

TEST(BatchPolicyTest, AdaptiveDispatchesEarlyWhenFillIsHopeless)
{
    AdaptivePolicy policy(2, 64, 1000.0);
    // Feed a slow arrival stream: one request per 900 us.
    policy.OnArrival(0.0);
    policy.OnArrival(900.0);
    policy.OnArrival(1800.0);
    EXPECT_GT(policy.EstimatedGapUs(), 0.0);
    // Two queued, 62 slots to fill at ~900 us each, deadline in 1000 us:
    // filling is hopeless, so it dispatches the queued pair early.
    const auto pair = QueueOf({1700.0, 1800.0});
    EXPECT_EQ(policy.Decide(pair, 1850.0, false).dispatch, 2);

    // A fast stream (1 us gaps) makes filling plausible: keep waiting.
    AdaptivePolicy fast(2, 64, 1000.0);
    for (int i = 0; i < 50; ++i) {
        fast.OnArrival(static_cast<double>(i));
    }
    const auto queued = QueueOf({48.0, 49.0});
    const BatchDecision wait = fast.Decide(queued, 50.0, false);
    EXPECT_EQ(wait.dispatch, 0);
    EXPECT_DOUBLE_EQ(wait.wake_us, 1048.0);
    // The deadline still forces a flush.
    EXPECT_EQ(fast.Decide(queued, 1048.0, false).dispatch, 2);
}

TEST(BatchPolicyTest, AdaptiveTreatsZeroFirstGapAsAnEstimate)
{
    AdaptivePolicy policy(2, 64, 1000.0);
    // A burst: two simultaneous arrivals. The first observed gap is
    // exactly 0, which IS a rate estimate ("arrivals are instantaneous"),
    // not its absence — the old `ewma > 0` sentinel got stuck in
    // no-estimate mode forever here.
    policy.OnArrival(100.0);
    policy.OnArrival(100.0);
    EXPECT_TRUE(policy.HasGapEstimate());
    EXPECT_DOUBLE_EQ(policy.EstimatedGapUs(), 0.0);

    // With an instantaneous-rate estimate, filling to max_batch is
    // plausible: keep accumulating instead of dispatching at min_batch.
    const auto pair = QueueOf({100.0, 100.0});
    const BatchDecision wait = policy.Decide(pair, 150.0, false);
    EXPECT_EQ(wait.dispatch, 0);
    EXPECT_DOUBLE_EQ(wait.wake_us, 1100.0);
    // The oldest request's deadline still bounds the wait.
    EXPECT_EQ(policy.Decide(pair, 1100.0, false).dispatch, 2);

    // Later non-zero gaps blend into the EWMA normally.
    policy.OnArrival(600.0);
    EXPECT_GT(policy.EstimatedGapUs(), 0.0);
}

TEST(BatchPolicyTest, FixedSizePartialBatchWaitsOutLullsUntilStreamEnd)
{
    FixedSizePolicy policy(8);
    const auto partial = QueueOf({0.0, 1.0, 2.0});
    // A long lull: no matter how stale the queue grows, a partial batch
    // neither dispatches nor schedules a timed wake — only a new arrival
    // or the end of the stream re-triggers the policy.
    for (const double now : {10.0, 1e4, 1e7, 1e9}) {
        const BatchDecision d = policy.Decide(partial, now, false);
        EXPECT_EQ(d.dispatch, 0);
        EXPECT_DOUBLE_EQ(d.wake_us, kNoWake);
    }
    // Stream end flushes the leftovers.
    EXPECT_EQ(policy.Decide(partial, 1e9, true).dispatch, 3);
}

TEST(BatchPolicyTest, InvalidConfigurationsThrow)
{
    EXPECT_THROW(FixedSizePolicy(0), Error);
    EXPECT_THROW(TimeoutPolicy(4, -1.0), Error);
    EXPECT_THROW(AdaptivePolicy(8, 4, 100.0), Error);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    for (const double wait : {kInf, -kInf, kNan}) {
        EXPECT_THROW(TimeoutPolicy(4, wait), Error) << wait;
        EXPECT_THROW(AdaptivePolicy(4, 8, wait), Error) << wait;
    }
    // A finite wait past 2^63 us is valid, and its name prints it whole.
    EXPECT_EQ(TimeoutPolicy(4, 1e19).Name(), "timeout(4,10000000000000000000us)");
    EXPECT_EQ(AdaptivePolicy(4, 8, 1e19).Name(),
              "adaptive(4..8,10000000000000000000us)");
    EXPECT_EQ(TimeoutPolicy(4, 2500.9).Name(), "timeout(4,2500us)");
}

TEST(BatchPolicyTest, MinDepthIsAFloor)
{
    // The serving loop sleeps through arrivals that leave the queue below a
    // waiting decision's min_depth, so no such queue may dispatch before
    // the decision's wake.
    Rng rng(41);
    for (int trial = 0; trial < 400; ++trial) {
        const int64_t batch = rng.UniformInt(1, 16);
        const double timeout = static_cast<double>(rng.UniformInt(0, 3)) * 500.0;
        TimeoutPolicy timeout_policy(batch, timeout);
        FixedSizePolicy fixed_policy(batch);
        for (BatchPolicy* policy :
             {static_cast<BatchPolicy*>(&timeout_policy),
              static_cast<BatchPolicy*>(&fixed_policy)}) {
            SCOPED_TRACE(policy->Name() + " trial " + std::to_string(trial));
            std::deque<Request> queue;
            double t = 0.0;
            for (int64_t i = rng.UniformInt(0, batch); i > 0; --i) {
                t += rng.Exponential(1e-2);
                queue.push_back(Request{static_cast<int64_t>(queue.size()), t});
            }
            const BatchDecision wait = policy->Decide(queue, t, false);
            if (wait.dispatch > 0) {
                continue;
            }
            // Arrivals up to one short of min_depth, at times before the
            // wake, and every decision on the way keeps waiting.
            while (static_cast<int64_t>(queue.size()) + 1 < wait.min_depth) {
                const double next = t + rng.Exponential(1e-2);
                if (next >= wait.wake_us) {
                    break;
                }
                t = next;
                queue.push_back(Request{static_cast<int64_t>(queue.size()), t});
                const double now =
                    t + (std::min(wait.wake_us, t + 1e4) - t) * rng.Uniform();
                if (now >= wait.wake_us) {
                    break;
                }
                EXPECT_EQ(policy->Decide(queue, now, false).dispatch, 0)
                    << "dispatched at depth " << queue.size() << " < min_depth "
                    << wait.min_depth;
            }
        }
    }
}

// ----------------------------------------------------------- model session

TEST(ModelSessionTest, CapturesAndMemoizesBatchProfiles)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);

    const BatchProfile& p16 = session.Profile(16);
    EXPECT_EQ(p16.batch_size, 16);
    EXPECT_GT(p16.host_us, 0.0);
    EXPECT_GT(p16.h2d_bytes, 0);
    EXPECT_GT(p16.d2h_bytes, 0);
    EXPECT_FALSE(p16.kernels.empty());

    // Memoized: same object back, no re-capture.
    const BatchProfile& again = session.Profile(16);
    EXPECT_EQ(&p16, &again);
    EXPECT_EQ(session.CapturedProfiles(), 1);

    // Bigger batches cost more host time and move more bytes.
    const BatchProfile& p32 = session.Profile(32);
    EXPECT_EQ(session.CapturedProfiles(), 2);
    EXPECT_GT(p32.host_us, p16.host_us);
    EXPECT_GT(p32.h2d_bytes, p16.h2d_bytes);
}

TEST(ModelSessionTest, CpuOnlyProfilesHaveNoTransfers)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kCpuOnly, 4);
    const BatchProfile& p = session.Profile(16);
    EXPECT_EQ(p.h2d_bytes, 0);
    EXPECT_EQ(p.d2h_bytes, 0);
    EXPECT_FALSE(p.kernels.empty());
}

TEST(ModelSessionTest, CaptureChargesExactlyTheProbeWindowsTransfers)
{
    // A profile moves what the probe's measured window moved, no more: its
    // bytes plus the per-node state it separates out (miss rows in,
    // write-back rows out) equal the window's counters of the same probe.
    // Set-up before the window (TGAT's one-time resident-table upload) is
    // load-time work, like the weights a server loads before it serves,
    // not a per-batch cost.
    const auto ds = TinyInteractions();
    using Factory = std::unique_ptr<models::DgnnModel> (*)(
        const data::InteractionDataset&);
    const std::vector<Factory> factories = {
        [](const data::InteractionDataset& d) -> std::unique_ptr<models::DgnnModel> {
            return std::make_unique<models::Tgn>(d, models::TgnConfig{});
        },
        [](const data::InteractionDataset& d) -> std::unique_ptr<models::DgnnModel> {
            return std::make_unique<models::Tgat>(d, models::TgatConfig{});
        },
        [](const data::InteractionDataset& d) -> std::unique_ptr<models::DgnnModel> {
            return std::make_unique<models::Jodie>(d, models::JodieConfig{});
        },
    };
    constexpr int64_t kNeighbors = 20;
    for (const Factory make : factories) {
        for (const sim::ExecMode mode :
             {sim::ExecMode::kCpuOnly, sim::ExecMode::kHybrid}) {
            for (const int64_t capacity : {int64_t{0}, int64_t{1} << 20}) {
                for (const int64_t b : {1, 7, 64}) {
                    const auto captured = make(ds);
                    cache::DeviceCacheConfig cache;
                    cache.capacity_bytes = capacity;
                    ProfileTable table(*captured, mode, kNeighbors, cache);
                    const BatchProfile& p = table.Profile(b);

                    const auto rerun = make(ds);
                    models::RunConfig probe =
                        models::SingleBatchProbe(mode, b, kNeighbors);
                    if (table.Cached()) {
                        probe.cache =
                            cache::DeviceCacheConfig::Unbounded(rerun->CacheRowBytes());
                    }
                    sim::Runtime runtime = models::MakeRuntime(mode);
                    const models::RunResult r = rerun->RunInference(runtime, probe);

                    SCOPED_TRACE(captured->Name() + " " + sim::ToString(mode) +
                                 " capacity " + std::to_string(capacity) +
                                 " b " + std::to_string(b));
                    EXPECT_EQ(p.h2d_bytes + p.state_rows * p.state_row_bytes,
                              r.h2d_bytes);
                    EXPECT_EQ(p.d2h_bytes +
                                  r.cache_stats.writeback_rows * p.state_row_bytes,
                              r.d2h_bytes);
                    if (captured->Name() == "TGAT" &&
                        mode == sim::ExecMode::kHybrid && b == 1) {
                        // n = 2 targets, k = 20: n(1+k) gathered node
                        // indices plus n*k time deltas, 8 bytes each.
                        EXPECT_EQ(p.h2d_bytes, 656);
                    }
                }
            }
        }
    }
}

/// Sums the host ops a runtime charges as neighbour sampling inside its
/// measured window, the way a reader of the op records would.
class SamplingHostTime final : public sim::RuntimeObserver {
  public:
    void OnWindowReset() override { us = 0.0; }
    void OnOp(const sim::OpRecord& op) override
    {
        if (op.kind == sim::OpKind::kHostOp && *op.name == "temporal_sampling") {
            us += op.end_us - op.start_us;
        }
    }
    sim::SimTime us = 0.0;
};

TEST(ModelSessionTest, PrepIsTheProbesSamplingHostTime)
{
    // prep_us is the probe window's temporal_sampling host time: positive
    // for the models that sample on the host (TGN, TGAT), cached or not,
    // zero for JODIE, and never above the batch's host work. PrepUs prices
    // a power-of-two group at exactly that, without counting it as a
    // captured batch size, and a size in between on the chord of the two
    // powers of two around it.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 1, 4, 7});
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    constexpr int64_t kNeighbors = 4;
    for (models::DgnnModel* model :
         std::vector<models::DgnnModel*>{&tgn, &tgat, &jodie}) {
        for (const int64_t capacity : {int64_t{0}, int64_t{1} << 20}) {
            cache::DeviceCacheConfig cache;
            cache.capacity_bytes = capacity;
            for (const int64_t b : {1, 8, 16}) {
                ProfileTable table(*model, sim::ExecMode::kHybrid, kNeighbors,
                                   cache);
                SCOPED_TRACE(model->Name() + " capacity " +
                             std::to_string(capacity) + " b " +
                             std::to_string(b));
                const sim::SimTime priced = table.PrepUs(b);
                EXPECT_EQ(table.Captured(), 0);
                const BatchProfile& p = table.Profile(b);
                EXPECT_EQ(p.prep_us, priced);
                EXPECT_LE(p.prep_us, p.host_us);
                EXPECT_EQ(table.Captured(), 1);

                models::RunConfig probe =
                    models::SingleBatchProbe(sim::ExecMode::kHybrid, b, kNeighbors);
                if (table.Cached()) {
                    probe.cache =
                        cache::DeviceCacheConfig::Unbounded(model->CacheRowBytes());
                }
                SamplingHostTime sampling;
                sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
                runtime.SetObserver(&sampling);
                (void)model->RunInference(runtime, probe);
                EXPECT_EQ(p.prep_us, sampling.us);
                if (model == &jodie) {
                    EXPECT_EQ(p.prep_us, 0.0);
                } else {
                    EXPECT_GT(p.prep_us, 0.0);
                }
            }
            if (model != &jodie) {
                // 7 takes the chord from 4 to 8, three quarters of the way.
                ProfileTable table(*model, sim::ExecMode::kHybrid, kNeighbors,
                                   cache);
                const sim::SimTime at4 = table.PrepUs(4);
                const sim::SimTime at8 = table.PrepUs(8);
                EXPECT_LT(at4, at8);
                EXPECT_DOUBLE_EQ(table.PrepUs(7), at4 + (at8 - at4) * 0.75);
                EXPECT_EQ(table.Captured(), 0);
            }
        }
    }
}

TEST(ModelSessionTest, RecordsEachStagesSampledNeighbourhoodBytes)
{
    // The capture tells a stage's sampled-neighbourhood bytes apart from
    // its other inputs by the copy's name, models::kNeighborhoodCopyName.
    // TGN's ride its embedding stage: 2b targets of k + 1 node indices, 8
    // bytes each, so 128 x 11 x 8 = 11,264 B at b = 64, k = 10, fused and
    // unfused. TGAT's one stage copies nothing else (indices and time
    // deltas); JODIE samples nothing.
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    models::Tgn tgn(dataset, bench::kServingTgn);
    models::Tgat tgat(dataset, models::TgatConfig{});
    models::Jodie jodie(dataset, models::JodieConfig{});
    cache::DeviceCacheConfig quarter;
    quarter.capacity_bytes = dataset.NumNodes() / 4 * tgn.CacheRowBytes();
    ModelSession tgn_session(tgn, sim::ExecMode::kHybrid, 10, quarter);
    for (const BatchProfile* p :
         {&tgn_session.Profile(64), &tgn_session.FusedProfile(64)}) {
        ASSERT_EQ(p->stages.size(), 3u);
        EXPECT_EQ(p->stages[0].neighborhood_bytes, 0);
        EXPECT_EQ(p->stages[1].neighborhood_bytes, 0);
        EXPECT_EQ(p->stages[2].neighborhood_bytes, 11264);
        EXPECT_EQ(p->stages[2].h2d_bytes, 11264);
    }
    ModelSession tgat_session(tgat, sim::ExecMode::kHybrid, 10);
    const BatchProfile& tgat_profile = tgat_session.Profile(64);
    EXPECT_GT(tgat_profile.h2d_bytes, 0);
    EXPECT_EQ(tgat_profile.stages[0].neighborhood_bytes, tgat_profile.h2d_bytes);
    ModelSession jodie_session(jodie, sim::ExecMode::kHybrid, 10);
    EXPECT_EQ(jodie_session.Profile(64).stages[0].neighborhood_bytes, 0);
}

TEST(ModelSessionTest, StagesConserveTheProfile)
{
    // A profile is its stages: every total is their sum, their launches
    // concatenate to the kernel list in order, and each fused kernel sits
    // in the stage of its chain's last member. TGN's probe interleaves
    // three host stages with its device work; TGAT and JODIE issue all of
    // their host work first, so theirs is one stage.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 1, 4, 7});
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    constexpr int64_t kNeighbors = 4;
    for (models::DgnnModel* model :
         std::vector<models::DgnnModel*>{&tgn, &tgat, &jodie}) {
        for (const int64_t capacity : {int64_t{0}, int64_t{1} << 20}) {
            cache::DeviceCacheConfig cache;
            cache.capacity_bytes = capacity;
            ProfileTable table(*model, sim::ExecMode::kHybrid, kNeighbors, cache);
            for (const int64_t b : {1, 16, 64}) {
                const BatchProfile& unfused = table.Profile(b);
                const BatchProfile& fused = table.FusedProfile(b);
                for (const BatchProfile* p : {&unfused, &fused}) {
                    SCOPED_TRACE(model->Name() + " capacity " +
                                 std::to_string(capacity) + " b " +
                                 std::to_string(b) +
                                 (p == &fused ? " fused" : " unfused"));
                    EXPECT_EQ(p->stages.size(), model == &tgn ? 3u : 1u);
                    sim::SimTime host_us = 0.0;
                    sim::SimTime prep_us = 0.0;
                    int64_t h2d = 0;
                    int64_t d2h = 0;
                    int64_t rows = 0;
                    std::vector<sim::KernelDesc> concatenated;
                    for (size_t s = 0; s < p->stages.size(); ++s) {
                        const BatchStage& stage = p->stages[s];
                        host_us += stage.host_us;
                        prep_us += stage.prep_us;
                        h2d += stage.h2d_bytes;
                        d2h += stage.d2h_bytes;
                        rows += stage.state_rows;
                        const auto kernels = p->StageKernels(s);
                        EXPECT_EQ(static_cast<int64_t>(kernels.size()),
                                  stage.launches);
                        concatenated.insert(concatenated.end(), kernels.begin(),
                                            kernels.end());
                    }
                    EXPECT_EQ(host_us, p->host_us);
                    EXPECT_EQ(prep_us, p->prep_us);
                    EXPECT_EQ(h2d, p->h2d_bytes);
                    EXPECT_EQ(d2h, p->d2h_bytes);
                    EXPECT_EQ(rows, p->state_rows);
                    ASSERT_EQ(concatenated.size(), p->kernels.size());
                    for (size_t i = 0; i < concatenated.size(); ++i) {
                        EXPECT_EQ(concatenated[i].name, p->kernels[i].name) << i;
                        EXPECT_EQ(concatenated[i].flops, p->kernels[i].flops) << i;
                    }
                }

                // Fusion moves no host work or bytes between stages.
                ASSERT_EQ(fused.stages.size(), unfused.stages.size());
                for (size_t s = 0; s < fused.stages.size(); ++s) {
                    EXPECT_EQ(fused.stages[s].host_us, unfused.stages[s].host_us);
                    EXPECT_EQ(fused.stages[s].h2d_bytes, unfused.stages[s].h2d_bytes);
                    EXPECT_EQ(fused.stages[s].state_rows,
                              unfused.stages[s].state_rows);
                }
                // Walk both lists: a fused launch's flops are its parts'
                // sum, so it covers the unfused launches whose flops add up
                // to its own, and must sit in the stage of the last of them.
                std::vector<size_t> unfused_stage;
                std::vector<size_t> fused_stage;
                for (size_t s = 0; s < unfused.stages.size(); ++s) {
                    unfused_stage.insert(unfused_stage.end(),
                                         static_cast<size_t>(unfused.stages[s].launches), s);
                    fused_stage.insert(fused_stage.end(),
                                       static_cast<size_t>(fused.stages[s].launches), s);
                }
                size_t next = 0;
                int64_t collapsed = 0;
                for (size_t f = 0; f < fused.kernels.size(); ++f) {
                    int64_t flops = 0;
                    ASSERT_LT(next, unfused.kernels.size());
                    do {
                        flops += unfused.kernels[next++].flops;
                    } while (flops < fused.kernels[f].flops &&
                             next < unfused.kernels.size());
                    EXPECT_EQ(flops, fused.kernels[f].flops) << fused.kernels[f].name;
                    EXPECT_EQ(fused_stage[f], unfused_stage[next - 1])
                        << fused.kernels[f].name;
                    collapsed += fused.kernels[f].name !=
                                 unfused.kernels[next - 1].name;
                }
                EXPECT_EQ(next, unfused.kernels.size());
                if (b > 1) {
                    EXPECT_GT(collapsed, 0);
                }
            }
        }
    }
}

// ----------------------------------------------------------------- serving

ServerOptions
Options(ExecutorKind kind)
{
    ServerOptions o;
    o.executor = kind;
    return o;
}

TEST(ServeTest, AllRequestsServedAndLatenciesPositive)
{
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    ModelSession session(jodie, sim::ExecMode::kHybrid, 4);
    const auto arrivals = PoissonArrivals(2000.0, 256, 11);

    TimeoutPolicy policy(16, 3000.0);
    const ServingReport report =
        Serve(session, policy, arrivals, Options(ExecutorKind::kPipelined));

    EXPECT_EQ(report.requests, 256);
    EXPECT_EQ(report.latency.Count(), 256);  // nothing lost or duplicated
    EXPECT_GT(report.latency.Min(), 0.0);    // completion after arrival
    EXPECT_GT(report.batches, 0);
    EXPECT_LE(report.batch_size.Max(), 16.0);
    EXPECT_GT(report.achieved_qps, 0.0);
    EXPECT_EQ(report.model, "JODIE");
    EXPECT_EQ(report.executor, "pipelined");
}

TEST(ServeTest, DeterministicAcrossRuns)
{
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    const auto arrivals = PoissonArrivals(3000.0, 200, 3);

    auto run = [&] {
        TimeoutPolicy policy(16, 2000.0);
        return Serve(session, policy, arrivals,
                     Options(ExecutorKind::kPipelined));
    };
    const ServingReport a = run();
    const ServingReport b = run();
    EXPECT_DOUBLE_EQ(a.latency.P50(), b.latency.P50());
    EXPECT_DOUBLE_EQ(a.latency.P99(), b.latency.P99());
    EXPECT_DOUBLE_EQ(a.makespan_us, b.makespan_us);
    EXPECT_EQ(a.batches, b.batches);
}

TEST(ServeTest, SerialAndPipelinedAgreeInCpuOnlyMode)
{
    // Without a device there is nothing to overlap: the pipelined executor
    // must degenerate to exactly the serial schedule, for one-stage JODIE
    // and three-stage TGN alike.
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    const auto arrivals = PoissonArrivals(1500.0, 128, 19);
    for (models::DgnnModel* model : std::vector<models::DgnnModel*>{&jodie, &tgn}) {
        SCOPED_TRACE(model->Name());
        ModelSession session(*model, sim::ExecMode::kCpuOnly, 4);

        TimeoutPolicy p1(16, 3000.0);
        const ServingReport serial =
            Serve(session, p1, arrivals, Options(ExecutorKind::kSerial));
        TimeoutPolicy p2(16, 3000.0);
        const ServingReport pipelined =
            Serve(session, p2, arrivals, Options(ExecutorKind::kPipelined));

        EXPECT_DOUBLE_EQ(serial.latency.P99(), pipelined.latency.P99());
        EXPECT_DOUBLE_EQ(serial.makespan_us, pipelined.makespan_us);
    }
}

TEST(ServeTest, PipelinedBeatsSerialAtSaturationInHybridMode)
{
    // At a saturating arrival rate the serial executor's makespan is the
    // sum of host and device time; the pipelined executor overlaps them
    // and must finish the same workload strictly faster.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    const auto arrivals = PoissonArrivals(1e6, 384, 23);  // instant backlog

    FixedSizePolicy p1(16);
    const ServingReport serial =
        Serve(session, p1, arrivals, Options(ExecutorKind::kSerial));
    FixedSizePolicy p2(16);
    const ServingReport pipelined =
        Serve(session, p2, arrivals, Options(ExecutorKind::kPipelined));

    EXPECT_LT(pipelined.makespan_us, serial.makespan_us);
    EXPECT_GT(pipelined.achieved_qps, serial.achieved_qps);
}

TEST(ServeTest, PipelinedOverlapsBatchesOnTheGauntletStream)
{
    // A saturating replay of the serving benches' stream: the pipelined
    // executor builds the next batch while the device still runs the last,
    // so it sustains clearly more than the serial one. An executor that
    // blocked the host on every batch's completion would tie it. The rate
    // sits well above both executors' capacity (pipelined JODIE sustains
    // about 235k qps), so the ratio compares capacities and not the offered
    // rate: a replay the pipelined executor keeps up with reads near 1.0x.
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    const auto requests = TraceRequests(dataset.stream, 400000.0, 1024);
    models::Tgn tgn(dataset, bench::kServingTgn);
    models::Jodie jodie(dataset, models::JodieConfig{});
    for (models::DgnnModel* model : {static_cast<models::DgnnModel*>(&tgn),
                                     static_cast<models::DgnnModel*>(&jodie)}) {
        ModelSession session(*model, sim::ExecMode::kHybrid, 10);
        TimeoutPolicy p1(64, 5000.0);
        const ServingReport serial =
            ServeRequests(session, p1, requests, Options(ExecutorKind::kSerial));
        TimeoutPolicy p2(64, 5000.0);
        const ServingReport pipelined =
            ServeRequests(session, p2, requests, Options(ExecutorKind::kPipelined));
        EXPECT_LT(serial.achieved_qps, 0.98 * serial.offered_qps) << model->Name();
        EXPECT_LT(pipelined.achieved_qps, 0.75 * pipelined.offered_qps)
            << model->Name();
        EXPECT_GE(pipelined.achieved_qps, 1.10 * serial.achieved_qps)
            << model->Name() << ": pipelined " << pipelined.achieved_qps
            << " qps, serial " << serial.achieved_qps;
    }
}

/// @p profile with its stages merged into one: all of its host work, then
/// all of its copies and kernels.
BatchProfile
Flat(const BatchProfile& profile)
{
    BatchProfile flat = profile;
    flat.stages = {{.host_us = profile.host_us,
                    .prep_us = profile.prep_us,
                    .h2d_bytes = profile.h2d_bytes,
                    .d2h_bytes = profile.d2h_bytes,
                    .state_rows = profile.state_rows,
                    .launches = static_cast<int64_t>(profile.kernels.size())}};
    return flat;
}

/// A batch's copies as the executors issue them, worked out by hand from
/// its profile, @p miss_bytes of missed state rows and @p writeback_bytes
/// of evicted dirty rows, which @p own_rows says include rows the batch's
/// own kernels write.
struct HandCopies {
    /// Write-backs at dispatch: the batch returns no results, and its
    /// kernels write none of the rows.
    int64_t dispatch_d2h = 0;
    /// Missed rows at dispatch: the stage that gathers state copies nothing
    /// of its own.
    int64_t dispatch_h2d = 0;
    /// Each stage's input copy (0: none). The first stage that copies
    /// anything also carries every stage's sampled neighbourhoods.
    std::vector<int64_t> stage_h2d;
    /// Results, plus the write-backs that did not go at dispatch.
    int64_t result_d2h = 0;
};

HandCopies
CopiesByHand(const BatchProfile& profile, int64_t miss_bytes,
             int64_t writeback_bytes, bool own_rows = false)
{
    HandCopies copies;
    int64_t neighborhoods = 0;
    for (const BatchStage& stage : profile.stages) {
        neighborhoods += stage.neighborhood_bytes;
        copies.stage_h2d.push_back(stage.h2d_bytes - stage.neighborhood_bytes);
    }
    for (size_t s = 0; s < profile.stages.size(); ++s) {
        if (profile.stages[s].h2d_bytes > 0) {
            copies.stage_h2d[s] += neighborhoods;
            break;
        }
    }
    size_t state = 0;
    while (state + 1 < profile.stages.size() &&
           profile.stages[state].state_rows == 0) {
        ++state;
    }
    if (profile.stages[state].state_rows == 0) {
        state = 0;
    }
    (copies.stage_h2d[state] > 0 ? copies.stage_h2d[state]
                                 : copies.dispatch_h2d) += miss_bytes;
    (profile.d2h_bytes == 0 && !own_rows ? copies.dispatch_d2h
                                         : copies.result_d2h) += writeback_bytes;
    copies.result_d2h += profile.d2h_bytes;
    return copies;
}

/// Stage @p s's host build by hand: the batch samples first, so stage 0
/// does all of its sampling, less @p prep_credit_us, and every stage keeps
/// the rest of its own host work.
sim::SimTime
HostByHand(const BatchProfile& profile, size_t s, sim::SimTime prep_credit_us)
{
    const BatchStage& stage = profile.stages[s];
    return stage.host_us - stage.prep_us +
           (s == 0 ? profile.prep_us - prep_credit_us : 0.0);
}

/// Dispatch-to-completion of @p profile's batch on an idle device, worked
/// out by hand from the runtime's issue costs (RuntimeConfig's submit and
/// event overheads), the host link's transfer time and the GPU's kernel
/// durations: at dispatch, the write-backs of a batch that returns no
/// results (a blocking D2H for the serial executor, an async one for the
/// pipelined) and then the missed rows when their stage copies nothing of
/// its own; per stage, its host work, its input copy (blocking for the
/// serial executor; async, with an event and a compute-stream fence, for
/// the pipelined one) and its kernel launches, each kernel starting once it
/// is submitted and the device work before it is done; then the result
/// copy behind the last kernel (CopiesByHand).
sim::SimTime
StagedCompletionUs(const BatchProfile& profile, int64_t miss_bytes,
                   int64_t writeback_bytes, ExecutorKind kind)
{
    const sim::RuntimeConfig config;
    const sim::TopologyNode& node = config.topology.NodeAt(0);
    const bool serial = kind == ExecutorKind::kSerial;
    const HandCopies copies = CopiesByHand(profile, miss_bytes, writeback_bytes);
    sim::SimTime host = 0.0;
    sim::SimTime link = 0.0;     // PCIe free
    sim::SimTime copy = 0.0;     // copy stream drained
    sim::SimTime compute = 0.0;  // compute stream drained
    // One copy of @p bytes that may start at @p earliest; returns its end.
    const auto transfer = [&](sim::SimTime earliest, int64_t bytes) {
        link = std::max(earliest, link) + node.host_link.TransferTime(bytes);
        return link;
    };
    // One input copy issued now; the compute stream waits for it.
    const auto copy_in = [&](int64_t bytes) {
        if (serial) {
            host = transfer(host, bytes);
            compute = std::max(compute, host);
            return;
        }
        host += config.submit_overhead_us;
        copy = transfer(std::max(host, copy), bytes);
        host += config.event_overhead_us;
        const sim::SimTime inputs_ready = std::max(copy, host);
        host += config.event_overhead_us;
        compute = std::max(compute, inputs_ready);
    };
    if (copies.dispatch_d2h > 0 && serial) {
        host = transfer(host, copies.dispatch_d2h);
    } else if (copies.dispatch_d2h > 0) {
        // No earlier batch: the copy stream has no compute event to wait on.
        host += config.submit_overhead_us;
        copy = transfer(std::max(host, copy), copies.dispatch_d2h);
    }
    if (copies.dispatch_h2d > 0) {
        copy_in(copies.dispatch_h2d);
    }
    for (size_t s = 0; s < profile.stages.size(); ++s) {
        host += HostByHand(profile, s, 0.0);
        if (copies.stage_h2d[s] > 0) {
            copy_in(copies.stage_h2d[s]);
        }
        for (const sim::KernelDesc& kernel : profile.StageKernels(s)) {
            compute = std::max(host + config.submit_overhead_us, compute) +
                      sim::KernelDuration(node.gpu, kernel);
            host += config.submit_overhead_us;
        }
    }
    if (serial) {
        // Results, then the write-backs that did not go at dispatch, each
        // its own blocking copy.
        host = std::max(host, compute);
        if (profile.d2h_bytes > 0) {
            host = transfer(host, profile.d2h_bytes);
        }
        if (copies.result_d2h > profile.d2h_bytes) {
            host = transfer(host, copies.result_d2h - profile.d2h_bytes);
        }
        return host;
    }
    host += config.event_overhead_us;
    const sim::SimTime compute_done = std::max(compute, host);
    if (copies.result_d2h == 0) {
        return compute_done;
    }
    host += config.event_overhead_us;
    copy = std::max(copy, compute_done);
    host += config.submit_overhead_us;
    copy = transfer(std::max(host, copy), copies.result_d2h);
    host += config.event_overhead_us;
    return std::max(copy, host);
}

/// A fresh hybrid runtime past its warm-up and @p kind's executor over it.
struct ServedBatch {
    sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kHybrid);
    std::unique_ptr<BatchExecutor> executor;

    explicit ServedBatch(ExecutorKind kind)
    {
        runtime.EnsureWarm(0);
        runtime.ResetMeasurementWindow();
        if (kind == ExecutorKind::kSerial) {
            executor = std::make_unique<SerialExecutor>(runtime);
        } else {
            executor = std::make_unique<PipelinedExecutor>(runtime);
        }
    }
};

TEST(ServeTest, LaterHostStagesHideEarlierDeviceWork)
{
    // One cached TGN batch of 64 on a cold cache (every state row misses),
    // the chain the serving benches run at that size. The batch samples
    // first, so its neighbour indices ride the message build's copy with
    // the missed rows, and the embedding stage copies nothing. Served as
    // its captured stages, its memory update (and, pipelined, its one copy)
    // runs while the host builds the embedding stage: the batch completes
    // on the stage critical path, below the flat replay (all host work,
    // then all device work) by at least the memory update's kernel. The
    // serial executor's copy blocks the host either way, and the memory
    // update's submit moves onto the host's path, so it saves exactly the
    // kernel less that submit.
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    models::Tgn tgn(dataset, bench::kServingTgn);
    cache::DeviceCacheConfig quarter;
    quarter.capacity_bytes = dataset.NumNodes() / 4 * tgn.CacheRowBytes();
    ModelSession session(tgn, sim::ExecMode::kHybrid, 10, quarter);
    const BatchProfile& profile = session.FusedProfile(64);
    ASSERT_EQ(profile.stages.size(), 3u);
    ASSERT_EQ(profile.stages[1].h2d_bytes, 0);
    ASSERT_GT(profile.stages[2].neighborhood_bytes, 0);
    ASSERT_EQ(profile.stages[2].h2d_bytes, profile.stages[2].neighborhood_bytes);
    CacheBatchCost cold;
    cold.miss_rows = profile.state_rows;
    cold.row_bytes = profile.state_row_bytes;
    const auto memory = std::find_if(
        profile.kernels.begin(), profile.kernels.end(),
        [](const sim::KernelDesc& k) { return k.name == "tgn_memory_fused"; });
    ASSERT_NE(memory, profile.kernels.end());
    const sim::RuntimeConfig config;
    const sim::TopologyNode& node = config.topology.NodeAt(0);
    const sim::SimTime memory_us = sim::KernelDuration(node.gpu, *memory);

    for (const ExecutorKind kind :
         {ExecutorKind::kSerial, ExecutorKind::kPipelined}) {
        SCOPED_TRACE(ToString(kind));
        // The batch's dispatch-to-completion; also checks that Submit spent
        // exactly CopyIssueUs of host time issuing its one input copy, every
        // input byte and missed row in it, the cost the dispatcher charges
        // between host stages.
        const auto serve = [&](const BatchProfile& p) {
            ServedBatch batch(kind);
            BatchSpans spans;
            const sim::SimTime dispatch = batch.runtime.Now();
            const sim::SimTime complete =
                batch.executor->Submit(p, 0.0, cold, &spans);
            EXPECT_NEAR(spans.copy_issue_us,
                        batch.executor->CopyIssueUs(
                            p.h2d_bytes + cold.miss_rows * cold.row_bytes),
                        1e-9);
            return complete - dispatch;
        };
        const sim::SimTime staged = serve(profile);
        const sim::SimTime flat = serve(Flat(profile));
        EXPECT_NEAR(staged,
                    StagedCompletionUs(profile, cold.miss_rows * cold.row_bytes,
                                       0, kind),
                    1e-6);
        if (kind == ExecutorKind::kSerial) {
            EXPECT_NEAR(flat - staged, memory_us - config.submit_overhead_us,
                        1e-6);
        } else {
            EXPECT_LE(staged, flat - memory_us)
                << "staged " << staged << " us, flat " << flat
                << " us, tgn_memory_fused " << memory_us << " us";
        }
    }
}

TEST(ServeTest, JodieCacheStateCopiesLeaveAtDispatch)
{
    // One cached JODIE batch of 64, the chain jodie_churn serves: every
    // state row misses and 16 evicted dirty rows owe a write-back. The
    // batch builds no inputs of its own and returns no results, so both
    // copies carry only cache state and go at dispatch, write-backs first:
    // serially they block the host before its build; pipelined they run
    // under it, and the batch completes at its last kernel, later than a
    // batch with no copies only by the copies' submits and fences.
    const auto dataset = data::GenerateInteractions(bench::GauntletSpec());
    models::Jodie jodie(dataset, models::JodieConfig{});
    cache::DeviceCacheConfig quarter;
    quarter.capacity_bytes = dataset.NumNodes() / 4 * jodie.CacheRowBytes();
    ModelSession session(jodie, sim::ExecMode::kHybrid, 10, quarter);
    const BatchProfile& profile = session.FusedProfile(64);
    ASSERT_EQ(profile.stages.size(), 1u);
    ASSERT_EQ(profile.h2d_bytes, 0);
    ASSERT_EQ(profile.d2h_bytes, 0);
    ASSERT_GT(profile.state_rows, 0);
    CacheBatchCost churn;
    churn.miss_rows = profile.state_rows;
    churn.writeback_rows = 16;
    churn.row_bytes = profile.state_row_bytes;
    CacheBatchCost none;
    none.row_bytes = profile.state_row_bytes;
    const int64_t miss_bytes = churn.miss_rows * churn.row_bytes;
    const int64_t writeback_bytes = churn.WritebackBytes();
    const sim::RuntimeConfig config;
    const sim::LinkSpec& link = config.topology.NodeAt(0).host_link;

    for (const ExecutorKind kind :
         {ExecutorKind::kSerial, ExecutorKind::kPipelined}) {
        SCOPED_TRACE(ToString(kind));
        const auto serve = [&](const CacheBatchCost& cost, BatchSpans& spans) {
            ServedBatch batch(kind);
            const sim::SimTime dispatch = batch.runtime.Now();
            return batch.executor->Submit(profile, 0.0, cost, &spans) - dispatch;
        };
        BatchSpans spans;
        BatchSpans bare_spans;
        const sim::SimTime copied = serve(churn, spans);
        const sim::SimTime bare = serve(none, bare_spans);
        EXPECT_NEAR(copied,
                    StagedCompletionUs(profile, miss_bytes, writeback_bytes, kind),
                    1e-6);
        // Both copies end before the host build starts (serial) or run
        // under it (pipelined); the host build is the whole host span less
        // the copies' issue costs.
        const sim::SimTime copies_on_host =
            kind == ExecutorKind::kSerial
                ? link.TransferTime(writeback_bytes) + link.TransferTime(miss_bytes)
                : 2.0 * config.submit_overhead_us + 2.0 * config.event_overhead_us;
        EXPECT_NEAR(copied - bare, copies_on_host, 1e-6);
        // The pipelined host span also holds the kernel submits and the
        // compute event's record.
        const sim::SimTime submits =
            kind == ExecutorKind::kSerial
                ? 0.0
                : static_cast<double>(profile.kernels.size()) *
                          config.submit_overhead_us +
                      config.event_overhead_us;
        EXPECT_NEAR(spans.host_done_us - spans.stall_done_us,
                    profile.host_us + copies_on_host + submits, 1e-6);
        EXPECT_LT(spans.h2d_done_us, spans.compute_done_us);
        EXPECT_EQ(spans.compute_done_us, spans.complete_us);
        EXPECT_NEAR(spans.h2d_busy_us, link.TransferTime(miss_bytes), 1e-9);
    }
}

TEST(ServeTest, CpuOnlyStagesCostTheFlatReplay)
{
    // A CPU-only runtime runs every kernel synchronously on the host and
    // moves nothing, so replaying TGN's stages in order costs what the
    // flat replay (all host work, then every kernel) does, up to the
    // rounding of the clock's running sum.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kCpuOnly, 4);
    const BatchProfile& profile = session.Profile(16);
    ASSERT_EQ(profile.stages.size(), 3u);
    for (const ExecutorKind kind :
         {ExecutorKind::kSerial, ExecutorKind::kPipelined}) {
        SCOPED_TRACE(ToString(kind));
        const auto serve = [&](const BatchProfile& p) {
            sim::Runtime runtime = models::MakeRuntime(sim::ExecMode::kCpuOnly);
            std::unique_ptr<BatchExecutor> executor;
            if (kind == ExecutorKind::kSerial) {
                executor = std::make_unique<SerialExecutor>(runtime);
            } else {
                executor = std::make_unique<PipelinedExecutor>(runtime);
            }
            const sim::SimTime dispatch = runtime.Now();
            return executor->Submit(p, 0.5 * profile.prep_us, {}) - dispatch;
        };
        const sim::SimTime flat = serve(Flat(profile));
        EXPECT_GT(flat, profile.host_us - 0.5 * profile.prep_us);
        EXPECT_NEAR(serve(profile), flat, 1e-9);
    }
}

TEST(ServeTest, ZeroArrivalStreamDrainsCleanly)
{
    // An empty trace must produce an empty report — no spin waiting for
    // requests that never come, no division by a zero makespan.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    TimeoutPolicy policy(16, 3000.0);

    const ServingReport report = Serve(session, policy, std::vector<sim::SimTime>{},
                                       Options(ExecutorKind::kSerial));
    EXPECT_EQ(report.requests, 0);
    EXPECT_EQ(report.batches, 0);
    EXPECT_TRUE(report.latency.Empty());
    EXPECT_EQ(report.latency.OverflowCount(), 0);
    EXPECT_DOUBLE_EQ(report.makespan_us, 0.0);
    EXPECT_DOUBLE_EQ(report.offered_qps, 0.0);
    EXPECT_DOUBLE_EQ(report.achieved_qps, 0.0);
    EXPECT_EQ(report.h2d_bytes, 0);

    // Same through the node-bearing entry point.
    TimeoutPolicy policy2(16, 3000.0);
    const ServingReport via_requests = ServeRequests(
        session, policy2, {}, Options(ExecutorKind::kPipelined));
    EXPECT_EQ(via_requests.requests, 0);
    EXPECT_EQ(via_requests.batches, 0);
}

TEST(ServeTest, SingleRequestFlushesAtStreamEndBeforeTimeout)
{
    // One request, batch budget 16, 5 ms timeout: the stream ends the
    // moment the request is admitted, so the timeout policy must flush the
    // partial batch immediately — latency is service time, NOT the 5 ms
    // timeout the request could never fill a batch within.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    TimeoutPolicy policy(16, 5000.0);

    const ServingReport report =
        Serve(session, policy, std::vector<sim::SimTime>{100.0},
              Options(ExecutorKind::kSerial));
    EXPECT_EQ(report.requests, 1);
    EXPECT_EQ(report.batches, 1);
    EXPECT_EQ(report.latency.Count(), 1);
    EXPECT_GT(report.latency.Max(), 0.0);
    EXPECT_LT(report.latency.Max(), 5000.0);  // did not wait out the timeout
    EXPECT_DOUBLE_EQ(report.batch_size.Max(), 1.0);
}

TEST(ServeTest, TimeoutWakesAPartialBatchDuringALull)
{
    // Two requests 40 ms apart with a 5 ms timeout: the first cannot see
    // end-of-stream (the second is still pending), so it must be dispatched
    // by the timeout wake — latency >= timeout, and nowhere near the 40 ms
    // a fill-or-end-of-stream policy would strand it for.
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    ModelSession session(tgn, sim::ExecMode::kHybrid, 4);
    TimeoutPolicy policy(16, 5000.0);

    const ServingReport report =
        Serve(session, policy, std::vector<sim::SimTime>{0.0, 40000.0},
              Options(ExecutorKind::kSerial));
    EXPECT_EQ(report.requests, 2);
    EXPECT_EQ(report.batches, 2);  // the lull forces two singleton batches
    EXPECT_EQ(report.latency.Count(), 2);
    EXPECT_GE(report.latency.Max(), 5000.0);   // first waited its deadline
    EXPECT_LT(report.latency.Max(), 20000.0);  // but not until the lull ended
}

/// Forwards every call to a policy but zeroes min_depth: the serving loop
/// re-evaluates it on every arrival, as it would without the idle skip.
class EveryArrival final : public BatchPolicy {
  public:
    explicit EveryArrival(std::unique_ptr<BatchPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    std::string Name() const override { return inner_->Name(); }
    void OnArrival(sim::SimTime arrival_us) override
    {
        inner_->OnArrival(arrival_us);
    }
    BatchDecision Decide(const std::deque<Request>& queue, sim::SimTime now_us,
                         bool stream_ended) override
    {
        BatchDecision decision = inner_->Decide(queue, now_us, stream_ended);
        decision.min_depth = 0;
        return decision;
    }

  private:
    std::unique_ptr<BatchPolicy> inner_;
};

/// Every served request's latency, in dispatch order.
class LatencyLog final : public ServingObserver {
  public:
    void OnBatch(const BatchObservation& ob) override
    {
        for (const Request& r : ob.requests) {
            latencies.push_back(ob.spans.complete_us - r.arrival_us);
        }
    }

    std::vector<sim::SimTime> latencies;
};

/// Every batch observation of a run, in dispatch order.
class BatchLog final : public ServingObserver {
  public:
    void OnBatch(const BatchObservation& ob) override { batches.push_back(ob); }

    std::vector<BatchObservation> batches;
};

TEST(ServeTest, PrepShortensOnlyTheHostStage)
{
    // While the host idles it samples queued requests ahead of dispatch. A
    // batch's host work is then its profile's host_us less its prep
    // credit, and exactly host_us when none of its members was sampled
    // early. JODIE samples nothing on the host and gets no credit. Serial
    // runs, so the stall_done -> host_done span is the batch's host work
    // plus what blocks the host before its last stage: the blocking copies
    // at dispatch (a cached JODIE batch's write-backs and missed rows) and,
    // for each stage before its last, its blocking input copy and its
    // kernel submits (the hit gather's on the stage that gathers state
    // too), on an otherwise idle link. The batch samples first, so TGN's
    // first copy carries its neighbour indices and its last stage copies
    // nothing (CopiesByHand).
    const sim::RuntimeConfig config;
    const sim::LinkSpec& link = config.topology.NodeAt(0).host_link;
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 1, 4, 7});
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    const dispatch::HybridDispatcher dispatcher;
    cache::DeviceCacheConfig quarter;
    quarter.capacity_bytes = ds.NumNodes() / 4 * tgn.CacheRowBytes();
    cache::DeviceCacheConfig jodie_quarter;
    jodie_quarter.capacity_bytes = ds.NumNodes() / 4 * jodie.CacheRowBytes();
    struct Case {
        std::string name;
        models::DgnnModel* model;
        cache::DeviceCacheConfig cache;
        const dispatch::HybridDispatcher* dispatcher;
    };
    const std::vector<Case> cases{{"TGN cached", &tgn, quarter, nullptr},
                                  {"TGN uncached", &tgn, {}, nullptr},
                                  {"TGAT dispatcher", &tgat, {}, &dispatcher},
                                  {"JODIE", &jodie, {}, nullptr},
                                  {"JODIE cached", &jodie, jodie_quarter, nullptr}};
    for (const Case& c : cases) {
        // Batches whose write-backs went at dispatch, and batches whose
        // write-backs waited for their own kernels.
        int64_t early_writebacks = 0;
        int64_t own_writebacks = 0;
        for (const double qps : {2000.0, 20000.0}) {
            SCOPED_TRACE(c.name + " " + std::to_string(qps) + " qps");
            ModelSession session(*c.model, sim::ExecMode::kHybrid, 4, c.cache);
            BatchLog log;
            ServerOptions options = Options(ExecutorKind::kSerial);
            options.dispatcher = c.dispatcher;
            options.observer = &log;
            // An attached runtime observer makes the loop record each
            // batch's gather trace.
            sim::RuntimeObserver passive;
            options.runtime_observer = &passive;
            TimeoutPolicy policy(16, 1500.0);
            (void)ServeRequests(session, policy,
                                TraceRequests(ds.stream, qps, 384), options);
            int64_t prepped = 0;
            for (const BatchObservation& ob : log.batches) {
                const sim::SimTime host_stage =
                    ob.spans.host_done_us - ob.spans.stall_done_us;
                const BatchProfile& p = *ob.profile;
                const CacheBatchCost& cost = ob.cache_cost;
                if (session.CacheEnabled()) {
                    // A row the batch's gather touched and then evicted is
                    // named in its trace as touched and as evicted dirty.
                    const cache::GatherTrace& trace = cost.row_trace;
                    std::set<std::string> touched(trace.hit_rows.begin(),
                                                  trace.hit_rows.end());
                    touched.insert(trace.inserted_rows.begin(),
                                   trace.inserted_rows.end());
                    EXPECT_EQ(cost.writes_back_own_rows,
                              std::any_of(trace.evicted_dirty_rows.begin(),
                                          trace.evicted_dirty_rows.end(),
                                          [&](const std::string& row) {
                                              return touched.count(row) > 0;
                                          }));
                    if (cost.writeback_rows > 0) {
                        ++(cost.writes_back_own_rows ? own_writebacks
                                                     : early_writebacks);
                    }
                }
                const HandCopies copies =
                    CopiesByHand(p, cost.miss_rows * cost.row_bytes,
                                 cost.WritebackBytes(), cost.writes_back_own_rows);
                sim::SimTime expected = p.host_us - ob.prep_credit_us;
                for (const int64_t bytes :
                     {copies.dispatch_d2h, copies.dispatch_h2d}) {
                    if (bytes > 0) {
                        expected += link.TransferTime(bytes);
                    }
                }
                for (size_t s = 0; s + 1 < p.stages.size(); ++s) {
                    const bool gathers = s == p.StateStage();
                    if (copies.stage_h2d[s] > 0) {
                        expected += link.TransferTime(copies.stage_h2d[s]);
                    }
                    const int64_t launches =
                        p.stages[s].launches + (gathers && cost.hit_rows > 0);
                    expected += static_cast<double>(launches) *
                                config.submit_overhead_us;
                }
                EXPECT_NEAR(host_stage, expected, 1e-6);
                EXPECT_GE(ob.prep_credit_us, 0.0);
                EXPECT_LE(ob.prepped_requests,
                          static_cast<int64_t>(ob.requests.size()));
                if (ob.prepped_requests == 0) {
                    EXPECT_EQ(ob.prep_credit_us, 0.0);
                }
                prepped += ob.prepped_requests;
            }
            if (c.model == &jodie) {
                EXPECT_EQ(prepped, 0);
            } else {
                EXPECT_GT(prepped, 0);
            }
        }
        if (c.name == "JODIE cached") {
            EXPECT_GT(early_writebacks, 0);
            EXPECT_GT(own_writebacks, 0);
        }
    }
}

TEST(ServeTest, AReplayAboveCapacitySamplesNothingEarly)
{
    // Far above capacity the host never idles once the first batch is
    // out: a full batch is always queued when the previous one completes.
    // Only the first batch, which fills from an empty queue, can hold
    // requests sampled early.
    const auto ds = TinyInteractions();
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 1, 4, 7});
    const dispatch::HybridDispatcher dispatcher;
    for (const ExecutorKind kind :
         {ExecutorKind::kSerial, ExecutorKind::kPipelined}) {
        SCOPED_TRACE(ToString(kind));
        ModelSession session(tgat, sim::ExecMode::kHybrid, 4);
        BatchLog log;
        ServerOptions options = Options(kind);
        options.dispatcher = &dispatcher;
        options.observer = &log;
        TimeoutPolicy policy(16, 1500.0);
        const ServingReport report = ServeRequests(
            session, policy, TraceRequests(ds.stream, 2e6, 384), options);
        ASSERT_GT(log.batches.size(), 2u);
        EXPECT_LT(report.achieved_qps, 0.5 * report.offered_qps);
        for (size_t i = 1; i < log.batches.size(); ++i) {
            EXPECT_EQ(log.batches[i].prepped_requests, 0) << i;
        }
    }
}

TEST(ServeTest, ABatchDispatchesAtItsFormingArrival)
{
    // Arrivals 5 ms apart leave the host idle at every arrival, so each
    // request is sampled alone as it arrives, except the one that fills
    // its batch: no group starts at the loop's wake, the policy decides
    // there first, and the batch dispatches at that arrival with one
    // member still unsampled.
    const auto ds = TinyInteractions();
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 1, 4, 7});
    ModelSession session(tgat, sim::ExecMode::kHybrid, 4);
    std::vector<sim::SimTime> arrivals;
    for (int i = 0; i < 64; ++i) {
        arrivals.push_back(5000.0 * i);
    }
    BatchLog log;
    ServerOptions options = Options(ExecutorKind::kSerial);
    options.observer = &log;
    FixedSizePolicy policy(8);
    (void)Serve(session, policy, arrivals, options);
    ASSERT_EQ(log.batches.size(), 8u);
    for (const BatchObservation& ob : log.batches) {
        EXPECT_EQ(ob.spans.dispatch_us, ob.requests.back().arrival_us);
        EXPECT_EQ(ob.prepped_requests, 7);
        EXPECT_EQ(ob.prep_credit_us, ob.profile->prep_us - session.PrepUs(1));
    }
}

TEST(ServeTest, IdleSkipIsExact)
{
    // Skipping the arrivals that cannot form a batch changes no simulated
    // outcome: every report field and every request's latency equal those
    // of the loop that re-evaluates the policy on each arrival. The rates
    // span timeout flushes (a lull) and full batches (a backlog).
    const auto ds = TinyInteractions();
    models::Tgn tgn(ds, models::TgnConfig{16, 16, 2, 11});
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    models::Tgat tgat(ds, models::TgatConfig{16, 2, 1, 4, 7});
    const dispatch::HybridDispatcher dispatcher;
    const auto quarter = [&](const models::DgnnModel& model) {
        cache::DeviceCacheConfig config;
        config.capacity_bytes = ds.NumNodes() / 4 * model.CacheRowBytes();
        return config;
    };
    const auto churn = [&](double qps) {
        scenario::Scenario s;
        s.name = "churn";
        s.access = scenario::AccessKind::kCommunityChurn;
        s.poisson_qps = qps;
        s.poisson_seed = 7;
        s.churn.num_communities = 4;
        s.churn.community_size = 8;
        s.churn.churn_every = 64;
        return scenario::GenerateRequests(s, ds, 384);
    };
    const std::vector<std::function<std::unique_ptr<BatchPolicy>()>> policies{
        [] { return std::make_unique<TimeoutPolicy>(16, 1500.0); },
        [] { return std::make_unique<FixedSizePolicy>(16); }};

    struct Case {
        std::string name;
        models::DgnnModel* model;
        cache::DeviceCacheConfig cache;
        const dispatch::HybridDispatcher* dispatcher;
        bool churn;
    };
    const std::vector<Case> cases{
        {"TGN cached", &tgn, quarter(tgn), nullptr, false},
        {"TGN uncached", &tgn, {}, nullptr, false},
        {"JODIE churn", &jodie, quarter(jodie), nullptr, true},
        {"TGAT dispatcher", &tgat, {}, &dispatcher, false}};
    for (const Case& c : cases) {
        for (const double qps : {2000.0, 60000.0}) {
            const std::vector<Request> requests =
                c.churn ? churn(qps) : TraceRequests(ds.stream, qps, 384);
            for (const ExecutorKind kind :
                 {ExecutorKind::kSerial, ExecutorKind::kPipelined}) {
                for (const auto& make_policy : policies) {
                    const auto serve = [&](bool skip) {
                        ModelSession session(*c.model, sim::ExecMode::kHybrid,
                                             4, c.cache);
                        LatencyLog log;
                        ServerOptions options = Options(kind);
                        options.dispatcher = c.dispatcher;
                        options.observer = &log;
                        std::unique_ptr<BatchPolicy> policy = make_policy();
                        if (!skip) {
                            policy = std::make_unique<EveryArrival>(std::move(policy));
                        }
                        ServingReport report =
                            ServeRequests(session, *policy, requests, options);
                        return std::pair{std::move(report), log.latencies};
                    };
                    const auto [skipped, skipped_latencies] = serve(true);
                    const auto [every, every_latencies] = serve(false);
                    SCOPED_TRACE(c.name + " " + std::to_string(qps) + " qps " +
                                 ToString(kind) + " " + skipped.policy);
                    ExpectReportsIdentical(skipped, every);
                    EXPECT_EQ(skipped_latencies, every_latencies);
                    EXPECT_EQ(skipped_latencies.size(), requests.size());
                }
            }
        }
    }

    // A 4-shard cluster: every shard's run is one run either way.
    const auto sharded = [&](bool skip) {
        shard::ShardedOptions options;
        options.num_shards = 4;
        options.partitioner = shard::PartitionerKind::kGreedy;
        options.cache_config = quarter(tgn);
        options.num_neighbors = 4;
        const std::vector<Request> requests = TraceRequests(ds.stream, 20000.0, 384);
        shard::Cluster cluster(tgn, sim::ExecMode::kHybrid, ds.NumNodes(),
                               requests, options);
        LatencyLog log;
        ServerOptions server = Options(ExecutorKind::kPipelined);
        server.observer = &log;
        shard::ShardedReport report = cluster.Serve(
            requests,
            [skip]() -> std::unique_ptr<BatchPolicy> {
                auto policy = std::make_unique<TimeoutPolicy>(16, 1500.0);
                if (skip) {
                    return policy;
                }
                return std::make_unique<EveryArrival>(std::move(policy));
            },
            server);
        return std::pair{std::move(report), log.latencies};
    };
    const auto [skipped, skipped_latencies] = sharded(true);
    const auto [every, every_latencies] = sharded(false);
    ASSERT_EQ(skipped.shards.size(), 4u);
    ASSERT_EQ(every.shards.size(), 4u);
    for (size_t shard = 0; shard < skipped.shards.size(); ++shard) {
        SCOPED_TRACE("shard " + std::to_string(shard));
        EXPECT_GT(skipped.shards[shard].requests, 0);
        ExpectReportsIdentical(skipped.shards[shard], every.shards[shard]);
    }
    EXPECT_EQ(skipped.sustained_qps, every.sustained_qps);
    EXPECT_EQ(skipped_latencies, every_latencies);
}

TEST(ServeTest, CapacityIsSustainedOnReplay)
{
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    ModelSession session(jodie, sim::ExecMode::kHybrid, 4);
    const auto make = [] { return std::make_unique<TimeoutPolicy>(16, 2000.0); };

    const QpsSearchResult found =
        FindCapacity(session, make, Options(ExecutorKind::kPipelined), 5);
    // Pinned: a change to the SLO, the keep-up share, the resolution, the
    // floor or the probe length moves one of these.
    EXPECT_EQ(found.max_qps, 63000.0);
    EXPECT_EQ(found.evaluations, 20);
    EXPECT_LE(found.p99_us, kCapacitySloUs);

    // Replaying the found rate meets both halves of the criterion.
    TimeoutPolicy policy(16, 2000.0);
    const ServingReport report = Serve(
        session, policy,
        PoissonArrivals(found.max_qps, kCapacityProbeRequests, 5),
        Options(ExecutorKind::kPipelined));
    EXPECT_EQ(report.latency.P99(), found.p99_us);
    EXPECT_LE(report.latency.P99(), kCapacitySloUs);
    EXPECT_GE(report.achieved_qps, kCapacityKeepUpShare * report.offered_qps);
}

TEST(ServeTest, CapacityIsZeroWhenTheFloorIsNotSustained)
{
    const auto ds = TinyInteractions();
    models::Jodie jodie(ds, models::JodieConfig{16, 13});
    ModelSession session(jodie, sim::ExecMode::kHybrid, 4);

    // At the floor rate a batch of 32 takes far longer than the SLO to
    // fill, so the first probe fails and the search stops there.
    ASSERT_GT(32.0 / kCapacityFloorQps * 1e6, kCapacitySloUs);
    const QpsSearchResult found = FindCapacity(
        session, [] { return std::make_unique<FixedSizePolicy>(32); },
        Options(ExecutorKind::kPipelined), 5);
    EXPECT_EQ(found.max_qps, 0.0);
    EXPECT_EQ(found.p99_us, 0.0);
    EXPECT_EQ(found.evaluations, 1);
}

}  // namespace
}  // namespace dgnn::serve
