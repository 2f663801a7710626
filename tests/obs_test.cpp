// Tests for the serving observability layer (src/obs/): the labeled
// metrics registry and its deterministic exports, per-request span
// tracing with the conservation invariant, windowed aggregation,
// bottleneck attribution (including a real served run whose slow host
// link makes it transfer-bound), the merged chrome-trace export, and — most
// importantly — the property that attaching an observer NEVER changes
// the simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/check.hpp"

#include "core/trace_analysis.hpp"
#include "data/temporal_interactions.hpp"
#include "models/tgn.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/request_timeline.hpp"
#include "obs/windowed_metrics.hpp"
#include "scenario/scenario.hpp"
#include "serve/server.hpp"
#include "serve/shard_hook.hpp"
#include "sim/topology.hpp"

namespace dgnn::obs {
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

// ----------------------------------------------------------------- metrics

TEST(MetricsTest, RenderLabelsSortsAndEscapes)
{
    EXPECT_EQ(RenderLabels({}), "");
    EXPECT_EQ(RenderLabels({{"b", "2"}, {"a", "1"}}), "{a=\"1\",b=\"2\"}");
    EXPECT_EQ(RenderLabels({{"k", "a\"b\\c\nd"}}),
              "{k=\"a\\\"b\\\\c\\nd\"}");
}

TEST(MetricsTest, FormatMetricValueIsDeterministic)
{
    EXPECT_EQ(FormatMetricValue(0.0), "0");
    EXPECT_EQ(FormatMetricValue(42.0), "42");
    EXPECT_EQ(FormatMetricValue(-3.0), "-3");
    EXPECT_EQ(FormatMetricValue(1.5), "1.5");
    EXPECT_EQ(FormatMetricValue(0.125), "0.125");
    // %.6f then trailing-zero trim.
    EXPECT_EQ(FormatMetricValue(1.0 / 3.0), "0.333333");
}

TEST(MetricsTest, CountersGaugesSummariesAccumulate)
{
    MetricsRegistry registry;
    registry.CounterAdd("c", 2.0);
    registry.CounterAdd("c", 3.0);
    EXPECT_DOUBLE_EQ(registry.CounterValue("c"), 5.0);
    // Same name, different labels = a distinct series.
    registry.CounterAdd("c", 7.0, {{"x", "1"}});
    EXPECT_DOUBLE_EQ(registry.CounterValue("c"), 5.0);
    EXPECT_DOUBLE_EQ(registry.CounterValue("c", {{"x", "1"}}), 7.0);

    registry.GaugeSet("g", 1.0);
    registry.GaugeSet("g", 9.0);  // last write wins
    EXPECT_DOUBLE_EQ(registry.GaugeValue("g"), 9.0);

    registry.SummaryObserve("s", 2.0);
    registry.SummaryObserve("s", 4.0);
    const core::RunningStat* stat = registry.Summary("s");
    ASSERT_NE(stat, nullptr);
    EXPECT_EQ(stat->Count(), 2);
    EXPECT_DOUBLE_EQ(stat->Mean(), 3.0);
    EXPECT_EQ(registry.Summary("missing"), nullptr);
    EXPECT_EQ(registry.InstrumentCount(), 4);
}

TEST(MetricsTest, PrometheusTextGolden)
{
    MetricsRegistry registry;
    registry.CounterAdd("dgnn_requests_total", 3.0, {{"model", "tgn"}});
    registry.CounterAdd("dgnn_requests_total", 1.0, {{"model", "jodie"}});
    registry.GaugeSet("dgnn_queue_depth", 2.5);
    registry.SummaryObserve("dgnn_batch_size", 2.0);
    registry.SummaryObserve("dgnn_batch_size", 6.0);

    // The golden exposition: families sorted counter/gauge/summary, series
    // sorted by rendered labels within a name, one TYPE header per family.
    const std::string expected =
        "# TYPE dgnn_requests_total counter\n"
        "dgnn_requests_total{model=\"jodie\"} 1\n"
        "dgnn_requests_total{model=\"tgn\"} 3\n"
        "# TYPE dgnn_queue_depth gauge\n"
        "dgnn_queue_depth 2.5\n"
        "# TYPE dgnn_batch_size summary\n"
        "dgnn_batch_size_count 2\n"
        "dgnn_batch_size_sum 8\n"
        "dgnn_batch_size_min 2\n"
        "dgnn_batch_size_mean 4\n"
        "dgnn_batch_size_max 6\n"
        "dgnn_batch_size_stddev 2\n";
    EXPECT_EQ(registry.PrometheusText(), expected);
}

TEST(MetricsTest, JsonSnapshotGolden)
{
    MetricsRegistry registry;
    registry.CounterAdd("c_total", 4.0, {{"m", "x"}});
    registry.GaugeSet("g_now", 1.25);
    registry.SummaryObserve("s_us", 3.0);

    const std::string json = registry.ToJson();
    // Envelope and field order are schema-stable (BenchJsonWriter).
    EXPECT_NE(json.find("\"bench\": \"metrics_snapshot\""), std::string::npos);
    EXPECT_NE(
        json.find("{\"metric\": \"c_total\", \"type\": \"counter\", "
                  "\"labels\": \"{m=\\\"x\\\"}\", \"value\": 4.000000}"),
        std::string::npos);
    EXPECT_NE(json.find("{\"metric\": \"g_now\", \"type\": \"gauge\", "
                        "\"labels\": \"\", \"value\": 1.250000}"),
              std::string::npos);
    EXPECT_NE(
        json.find("{\"metric\": \"s_us\", \"type\": \"summary\", \"labels\": "
                  "\"\", \"count\": 1, \"sum\": 3.000000"),
        std::string::npos)
        << json;
    // Byte-identical across calls — the determinism contract.
    EXPECT_EQ(json, registry.ToJson());
}

// ---------------------------------------------------------------- timeline

serve::BatchObservation
SyntheticBatch()
{
    serve::BatchObservation ob;
    ob.batch_index = 3;
    ob.queue_depth = 5;
    ob.spans.dispatch_us = 100.0;
    ob.spans.stall_done_us = 110.0;
    ob.spans.host_done_us = 130.0;
    ob.spans.h2d_done_us = 170.0;
    ob.spans.compute_done_us = 200.0;
    ob.spans.complete_us = 220.0;
    ob.requests = {serve::Request{7, 40.0}, serve::Request{8, 90.0}};
    return ob;
}

TEST(RequestTimelineTest, SpansDecomposeTheBatchBoundaries)
{
    RequestTimeline timeline;
    timeline.RecordBatch(SyntheticBatch());
    ASSERT_EQ(timeline.Count(), 2);

    const RequestRecord& r0 = timeline.Records()[0];
    EXPECT_EQ(r0.id, 7);
    EXPECT_EQ(r0.batch_index, 3);
    EXPECT_EQ(r0.batch_size, 2);
    EXPECT_DOUBLE_EQ(r0.span_us[static_cast<size_t>(SpanKind::kQueue)], 60.0);
    EXPECT_DOUBLE_EQ(r0.span_us[static_cast<size_t>(SpanKind::kStall)], 10.0);
    EXPECT_DOUBLE_EQ(r0.span_us[static_cast<size_t>(SpanKind::kHostPrep)],
                     20.0);
    EXPECT_DOUBLE_EQ(r0.span_us[static_cast<size_t>(SpanKind::kH2d)], 40.0);
    EXPECT_DOUBLE_EQ(r0.span_us[static_cast<size_t>(SpanKind::kCompute)],
                     30.0);
    EXPECT_DOUBLE_EQ(r0.span_us[static_cast<size_t>(SpanKind::kD2h)], 20.0);
    // Conservation: spans telescope to the end-to-end latency.
    EXPECT_DOUBLE_EQ(r0.SpanTotalUs(), r0.LatencyUs());

    // The second member shares every stage span but owns its queue wait.
    const RequestRecord& r1 = timeline.Records()[1];
    EXPECT_DOUBLE_EQ(r1.span_us[static_cast<size_t>(SpanKind::kQueue)], 10.0);
    EXPECT_DOUBLE_EQ(r1.SpanTotalUs(), r1.LatencyUs());

    EXPECT_LE(timeline.MaxConservationErrorUs(), 1e-9);
    EXPECT_DOUBLE_EQ(timeline.MeanSpanUs(SpanKind::kQueue), 35.0);
}

TEST(RequestTimelineTest, SpanKindNamesAreStable)
{
    EXPECT_STREQ(ToString(SpanKind::kQueue), "queue");
    EXPECT_STREQ(ToString(SpanKind::kStall), "stall");
    EXPECT_STREQ(ToString(SpanKind::kHostPrep), "host");
    EXPECT_STREQ(ToString(SpanKind::kH2d), "h2d");
    EXPECT_STREQ(ToString(SpanKind::kCompute), "compute");
    EXPECT_STREQ(ToString(SpanKind::kD2h), "d2h");
}

// ----------------------------------------------------------------- windows

TEST(WindowedMetricsTest, BinsObservationsIntoContiguousWindows)
{
    WindowedMetrics windows(100.0);
    windows.SetOrigin(1000.0);
    windows.OnArrival(1000.0);   // window 0
    windows.OnArrival(1099.0);   // window 0
    windows.OnArrival(1100.0);   // window 1
    windows.OnCompletion(1350.0, 42.0);  // window 3 (2 stays quiet)
    windows.OnBatch(1350.0, 1000, 200, 6, 2);

    const auto& w = windows.Windows();
    ASSERT_EQ(w.size(), 4u);
    EXPECT_EQ(w[0].arrivals, 2);
    EXPECT_EQ(w[1].arrivals, 1);
    EXPECT_EQ(w[2].arrivals, 0);  // quiet windows materialize with zeros
    EXPECT_EQ(w[2].completions, 0);
    EXPECT_EQ(w[3].completions, 1);
    EXPECT_EQ(w[3].batches, 1);
    EXPECT_EQ(w[3].h2d_bytes, 1000);
    EXPECT_DOUBLE_EQ(w[3].latency.Mean(), 42.0);
    EXPECT_DOUBLE_EQ(w[3].HitRate(), 0.75);
    EXPECT_DOUBLE_EQ(w[0].HitRate(), 0.0);  // no gathers -> 0, not NaN
    // Window starts are origin-relative.
    EXPECT_DOUBLE_EQ(w[3].start_us, 300.0);
    // QPS: completions over the window length.
    EXPECT_DOUBLE_EQ(w[3].Qps(100.0), 1e4);

    EXPECT_THROW(WindowedMetrics(0.0), Error);
}

// ------------------------------------------------------------- attribution

TEST(AttributionTest, ClassifyPicksTheLargestComponent)
{
    EXPECT_EQ(Classify(10.0, 1.0, 2.0, 3.0), BottleneckCategory::kQueueing);
    EXPECT_EQ(Classify(1.0, 10.0, 2.0, 3.0), BottleneckCategory::kHost);
    EXPECT_EQ(Classify(1.0, 2.0, 10.0, 3.0), BottleneckCategory::kTransfer);
    EXPECT_EQ(Classify(1.0, 2.0, 3.0, 10.0), BottleneckCategory::kCompute);
    // Ties break deterministically on the earlier enum value.
    EXPECT_EQ(Classify(5.0, 5.0, 5.0, 5.0), BottleneckCategory::kQueueing);
    EXPECT_EQ(Classify(1.0, 5.0, 5.0, 5.0), BottleneckCategory::kHost);
}

TEST(AttributionTest, BatchDecompositionAndSummary)
{
    BottleneckAttributor attributor;
    attributor.OnBatch(SyntheticBatch());
    ASSERT_EQ(attributor.Batches().size(), 1u);

    const BatchAttribution& a = attributor.Batches()[0];
    // queueing = mean member queue wait (35) + stall (10).
    EXPECT_DOUBLE_EQ(a.queueing_us, 45.0);
    EXPECT_DOUBLE_EQ(a.host_us, 20.0);
    // transfer = h2d (40) + d2h (20).
    EXPECT_DOUBLE_EQ(a.transfer_us, 60.0);
    EXPECT_DOUBLE_EQ(a.compute_us, 30.0);
    EXPECT_EQ(a.dominant, BottleneckCategory::kTransfer);

    const AttributionSummary summary = attributor.Summary();
    EXPECT_EQ(summary.total_batches, 1);
    EXPECT_EQ(summary.batches[static_cast<size_t>(
                  BottleneckCategory::kTransfer)],
              1);
    EXPECT_EQ(summary.Dominant(), BottleneckCategory::kTransfer);
    EXPECT_EQ(summary.DominantByTime(), BottleneckCategory::kTransfer);
    EXPECT_DOUBLE_EQ(
        summary.BatchSharePct(BottleneckCategory::kTransfer), 100.0);
    EXPECT_NEAR(summary.TimeSharePct(BottleneckCategory::kTransfer),
                100.0 * 60.0 / 155.0, 1e-9);
}

TEST(AttributionTest, LedgerCreditsSamplingDoneBeforeDispatch)
{
    // A batch whose members were sampled while the host idled runs a host
    // stage shorter than the full build the dispatcher priced, by exactly
    // the batch's prep credit: the ledger takes the credit off the
    // prediction, so an exact cost model reads zero error.
    serve::BatchObservation ob = SyntheticBatch();
    ob.prepped_requests = 2;
    ob.prep_credit_us = 45.0;
    dispatch::PlacementDecision decision;
    decision.placement = dispatch::Placement::kGpuFused;
    // The full build (20 us measured + 45 us credited) plus 90 us of
    // transfers and kernels: stall_done -> complete is 110 us.
    decision.predicted_gpu_fused_us = 155.0;
    ob.decision = decision;

    DispatchLedger ledger;
    ledger.OnBatch(ob);
    const PlacementBucket& bucket =
        ledger.Bucket(dispatch::Placement::kGpuFused);
    EXPECT_EQ(bucket.batches, 1);
    EXPECT_DOUBLE_EQ(bucket.predicted_us, 110.0);
    EXPECT_DOUBLE_EQ(bucket.actual_us, 110.0);
    EXPECT_DOUBLE_EQ(ledger.MeanRelativeError(), 0.0);
}

// --------------------------------------------- serving-loop integration

serve::ServingReport
ServeScenario(const scenario::Scenario& s,
              const data::InteractionDataset& dataset,
              serve::ExecutorKind kind, int64_t n,
              serve::ServingObserver* obs)
{
    models::Tgn tgn(dataset, models::TgnConfig{16, 16, 2, 11});
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = dataset.NumNodes() / 4 * tgn.CacheRowBytes();
    serve::ModelSession session(tgn, sim::ExecMode::kHybrid,
                                /*num_neighbors=*/4, cache_config);
    serve::TimeoutPolicy policy(8, 2000.0);
    serve::ServerOptions options;
    options.executor = kind;
    options.observer = obs;
    return serve::ServeRequests(session, policy,
                                scenario::GenerateRequests(s, dataset, n), options);
}

/// A shard hook that claims nothing and places the serving runtime on a
/// one-node topology whose host link is 1000x slower than PCIe gen4 in
/// both bandwidth and latency: every batch's input staging and cache
/// traffic crosses that link, and no peer exchange ever runs.
class SlowHostLinkHook final : public serve::BatchShardHook {
  public:
    SlowHostLinkHook()
    {
        sim::TopologyNode node;
        node.host_link.bandwidth_gbps /= 1000.0;
        node.host_link.latency_us *= 1000.0;
        topology_.AddNode(node);
    }
    const sim::Topology& Topology() const override { return topology_; }
    int32_t DeviceIndex() const override { return 0; }
    int64_t ClaimRemote(std::vector<int64_t>& /*nodes*/) override { return 0; }
    serve::ExchangeCost IssueExchange(sim::Runtime& /*runtime*/) override
    {
        return {};
    }

  private:
    sim::Topology topology_;
};

TEST(ObservabilityTest, SlowHostLinkDrivesServedBatchesTransferDominated)
{
    const auto dataset = TinyInteractions();
    // Arrivals far enough apart that even the slow link keeps up, so no
    // backlog turns the run queueing-bound.
    scenario::Scenario s;
    s.name = "slow-link";
    s.poisson_qps = 10.0;
    s.poisson_seed = 9;
    const std::vector<serve::Request> requests =
        scenario::GenerateRequests(s, dataset, 120);
    models::Tgn tgn(dataset, models::TgnConfig{16, 16, 2, 11});
    cache::DeviceCacheConfig cache_config;
    cache_config.capacity_bytes = dataset.NumNodes() / 4 * tgn.CacheRowBytes();

    const auto serve_over = [&](serve::BatchShardHook* hook) {
        serve::ModelSession session(tgn, sim::ExecMode::kHybrid,
                                    /*num_neighbors=*/4, cache_config);
        serve::TimeoutPolicy policy(8, 2000.0);
        ServingObservability obs;
        serve::ServerOptions options;
        options.executor = serve::ExecutorKind::kPipelined;
        options.observer = &obs;
        options.shard_hook = hook;
        const serve::ServingReport report =
            serve::ServeRequests(session, policy, requests, options);
        EXPECT_GT(report.cache_stats.lookups, 0);
        EXPECT_EQ(report.exchange.remote_rows, 0);
        return obs.Attribution().Summary();
    };

    // Over the testbed's PCIe link the same session is not transfer-bound,
    // so the verdict below comes from the link.
    const AttributionSummary pcie = serve_over(nullptr);
    EXPECT_NE(pcie.Dominant(), BottleneckCategory::kTransfer);

    SlowHostLinkHook hook;
    const AttributionSummary slow = serve_over(&hook);
    ASSERT_GT(slow.total_batches, 0);
    EXPECT_EQ(slow.Dominant(), BottleneckCategory::kTransfer);
    EXPECT_EQ(slow.DominantByTime(), BottleneckCategory::kTransfer);
    EXPECT_EQ(slow.batches[static_cast<size_t>(BottleneckCategory::kTransfer)],
              slow.total_batches);
}

TEST(ObservabilityTest, SpanConservationHoldsForEveryGauntletScenario)
{
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 160, dataset.NumNodes(), 21);
    ASSERT_GE(scenarios.size(), 5u);

    for (const scenario::Scenario& s : scenarios) {
        for (const serve::ExecutorKind kind :
             {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
            SCOPED_TRACE(s.name + std::string(" / ") +
                         serve::ToString(kind));
            ServingObservability obs;
            const serve::ServingReport report =
                ServeScenario(s, dataset, kind, 160, &obs);

            // Every request has a record, and its six spans sum to the
            // end-to-end latency the report's histogram recorded.
            EXPECT_EQ(obs.Timeline().Count(), report.requests);
            EXPECT_LE(obs.Timeline().MaxConservationErrorUs(), 1e-6);

            // Spans are non-negative (monotone boundaries).
            for (const RequestRecord& rec : obs.Timeline().Records()) {
                for (const double span : rec.span_us) {
                    EXPECT_GE(span, 0.0);
                }
            }

            // The attributor saw every batch; windows cover every request.
            EXPECT_EQ(static_cast<int64_t>(obs.Attribution().Batches().size()),
                      report.batches);
            int64_t completions = 0;
            int64_t arrivals = 0;
            for (const WindowStats& w : obs.Windows().Windows()) {
                completions += w.completions;
                arrivals += w.arrivals;
            }
            EXPECT_EQ(completions, report.requests);
            EXPECT_EQ(arrivals, report.requests);
        }
    }
}

TEST(ObservabilityTest, AttachingAnObserverDoesNotPerturbTheSimulation)
{
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 120, dataset.NumNodes(), 9);
    const scenario::Scenario& s = scenarios.front();

    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        SCOPED_TRACE(serve::ToString(kind));
        const serve::ServingReport bare =
            ServeScenario(s, dataset, kind, 120, nullptr);
        ServingObservability obs;
        const serve::ServingReport observed =
            ServeScenario(s, dataset, kind, 120, &obs);

        // Bit-identical simulation outcomes.
        EXPECT_EQ(bare.requests, observed.requests);
        EXPECT_EQ(bare.batches, observed.batches);
        EXPECT_EQ(bare.makespan_us, observed.makespan_us);
        EXPECT_EQ(bare.latency.Mean(), observed.latency.Mean());
        EXPECT_EQ(bare.latency.P99(), observed.latency.P99());
        EXPECT_EQ(bare.h2d_bytes, observed.h2d_bytes);
        EXPECT_EQ(bare.d2h_bytes, observed.d2h_bytes);
        EXPECT_EQ(bare.cache_stats.hits, observed.cache_stats.hits);
        EXPECT_EQ(bare.cache_stats.misses, observed.cache_stats.misses);
    }
}

TEST(ObservabilityTest, MetricsAgreeWithTheServingReport)
{
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 120, dataset.NumNodes(), 9);
    ServingObservability obs;
    const serve::ServingReport report = ServeScenario(
        scenarios.front(), dataset, serve::ExecutorKind::kPipelined, 120,
        &obs);

    const Labels labels = {{"model", report.model},
                           {"mode", report.mode},
                           {"policy", report.policy},
                           {"executor", report.executor}};
    EXPECT_DOUBLE_EQ(
        obs.Metrics().CounterValue("dgnn_serve_requests_total", labels),
        static_cast<double>(report.requests));
    EXPECT_DOUBLE_EQ(
        obs.Metrics().CounterValue("dgnn_serve_completions_total", labels),
        static_cast<double>(report.requests));
    EXPECT_DOUBLE_EQ(
        obs.Metrics().CounterValue("dgnn_serve_batches_total", labels),
        static_cast<double>(report.batches));
    // The observer's batch-derived transfer counters reproduce the
    // runtime's serving-window PCIe accounting... up to the end-of-run
    // dirty flush, which is outside any batch; the sim-side counter
    // (cursor delta) includes it.
    EXPECT_DOUBLE_EQ(
        obs.Metrics().CounterValue("dgnn_sim_h2d_bytes_total", labels),
        static_cast<double>(report.h2d_bytes));
    EXPECT_DOUBLE_EQ(
        obs.Metrics().CounterValue("dgnn_sim_d2h_bytes_total", labels),
        static_cast<double>(report.d2h_bytes));
    EXPECT_DOUBLE_EQ(
        obs.Metrics().CounterValue("dgnn_cache_hit_rows_total", labels),
        static_cast<double>(report.cache_stats.hits));

    const core::RunningStat* batch_size =
        obs.Metrics().Summary("dgnn_serve_batch_size", labels);
    ASSERT_NE(batch_size, nullptr);
    EXPECT_EQ(batch_size->Count(), report.batches);
    EXPECT_DOUBLE_EQ(batch_size->Mean(), report.batch_size.Mean());

    EXPECT_EQ(obs.RunsObserved(), 1);
}

/// Sums the prep fields of every batch observation.
class PrepTally final : public serve::ServingObserver {
  public:
    void OnBatch(const serve::BatchObservation& ob) override
    {
        prepped += ob.prepped_requests;
        prep_us += ob.prep_credit_us;
    }

    int64_t prepped = 0;
    double prep_us = 0.0;
};

TEST(ObservabilityTest, PrepMetricsSumTheBatchObservations)
{
    // Light load leaves the host idle between batches, so TGN samples most
    // requests ahead of dispatch; both prep counters carry the run labels
    // and sum exactly what the batch observations report. Observers never
    // perturb the run, so the two serves are the same run.
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 120, dataset.NumNodes(), 9);
    ServingObservability obs;
    const serve::ServingReport report = ServeScenario(
        scenarios.front(), dataset, serve::ExecutorKind::kSerial, 120, &obs);
    PrepTally tally;
    (void)ServeScenario(scenarios.front(), dataset, serve::ExecutorKind::kSerial,
                        120, &tally);

    const Labels labels = {{"model", report.model},
                           {"mode", report.mode},
                           {"policy", report.policy},
                           {"executor", report.executor}};
    EXPECT_GT(tally.prepped, 0);
    EXPECT_GT(tally.prep_us, 0.0);
    EXPECT_DOUBLE_EQ(obs.Metrics().CounterValue(
                         "dgnn_serve_prepped_requests_total", labels),
                     static_cast<double>(tally.prepped));
    EXPECT_DOUBLE_EQ(
        obs.Metrics().CounterValue("dgnn_serve_prep_us_total", labels),
        tally.prep_us);
}

/// A serving observer that reads the runtime's trace but never asks for it.
class TraceReader final : public serve::ServingObserver {
  public:
    void OnRunBegin(const serve::RunContext& ctx) override
    {
        runtime_ = ctx.runtime;
    }
    void OnRunEnd() override
    {
        events = runtime_->GetTrace().Size();
        h2d_bytes = runtime_->BytesToDevice();
    }
    size_t events = 0;
    int64_t h2d_bytes = 0;

  private:
    sim::Runtime* runtime_ = nullptr;
};

TEST(ObservabilityTest, ServingRuntimeRecordsNoTraceByDefault)
{
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 120, dataset.NumNodes(), 9);
    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        SCOPED_TRACE(serve::ToString(kind));
        TraceReader reader;
        const serve::ServingReport report =
            ServeScenario(scenarios.front(), dataset, kind, 120, &reader);
        EXPECT_EQ(reader.events, 0u);
        // The run did issue work; only its per-op record is missing.
        EXPECT_GT(report.batches, 0);
        EXPECT_EQ(reader.h2d_bytes, report.h2d_bytes);
        EXPECT_GT(reader.h2d_bytes, 0);
    }
}

/// ServingObservability that also tallies the kernels each batch issues.
class KernelTally final : public ServingObservability {
  public:
    void OnBatch(const serve::BatchObservation& ob) override
    {
        // The profile's kernels, plus the device gather of cached rows.
        expected_kernels += static_cast<int64_t>(ob.profile->kernels.size());
        if (ob.cache_cost.hit_rows > 0) {
            ++expected_kernels;
            ++hit_batches;
        }
        ServingObservability::OnBatch(ob);
    }
    int64_t expected_kernels = 0;
    int64_t hit_batches = 0;
};

TEST(ObservabilityTest, KernelLaunchCounterSeesEveryServingKernel)
{
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 120, dataset.NumNodes(), 9);
    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        SCOPED_TRACE(serve::ToString(kind));
        KernelTally tally;
        const serve::ServingReport report =
            ServeScenario(scenarios.front(), dataset, kind, 120, &tally);
        const Labels labels = {{"model", report.model},
                               {"mode", report.mode},
                               {"policy", report.policy},
                               {"executor", report.executor}};
        EXPECT_GT(tally.hit_batches, 0);
        EXPECT_GT(tally.expected_kernels, report.batches);
        EXPECT_EQ(tally.Metrics().CounterValue(
                      "dgnn_sim_kernel_launches_total", labels),
                  static_cast<double>(tally.expected_kernels));
    }
}

/// ServingObservability that also counts the trace events its run's
/// runtime recorded.
class TraceCounting final : public ServingObservability {
  public:
    using ServingObservability::ServingObservability;
    void OnRunBegin(const serve::RunContext& ctx) override
    {
        runtime_ = ctx.runtime;
        ServingObservability::OnRunBegin(ctx);
    }
    void OnRunEnd() override
    {
        events = runtime_->GetTrace().Size();
        ServingObservability::OnRunEnd();
    }
    size_t events = 0;

  private:
    sim::Runtime* runtime_ = nullptr;
};

TEST(ObservabilityTest, MetricsNeedNoDeviceTrace)
{
    // The kernel counter and the occupancy gauge read runtime counters, so
    // a facade that keeps no device trace records no trace and exports the
    // same bytes as one that does.
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 120, dataset.NumNodes(), 9);
    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        SCOPED_TRACE(serve::ToString(kind));
        TraceCounting traced;
        ObservabilityOptions untraced_options;
        untraced_options.keep_device_trace = false;
        TraceCounting untraced(untraced_options);
        (void)ServeScenario(scenarios.front(), dataset, kind, 120, &traced);
        (void)ServeScenario(scenarios.front(), dataset, kind, 120, &untraced);
        EXPECT_GT(traced.events, 0u);
        EXPECT_EQ(untraced.events, 0u);
        EXPECT_EQ(untraced.Metrics().PrometheusText(),
                  traced.Metrics().PrometheusText());
        EXPECT_GT(untraced.Metrics().CounterValue(
                      "dgnn_sim_kernel_launches_total",
                      {{"model", "TGN"},
                       {"mode", "GPU"},
                       {"policy", "timeout(8,2000us)"},
                       {"executor", serve::ToString(kind)}}),
                  0.0);
    }
}

/// Sums the batches' busy times and reads the run's device busy time.
class BusyLedger final : public serve::ServingObserver {
  public:
    void OnRunBegin(const serve::RunContext& ctx) override { runtime_ = ctx.runtime; }
    void OnBatch(const serve::BatchObservation& ob) override
    {
        compute_busy_us += ob.spans.compute_busy_us;
        h2d_busy_us += ob.spans.h2d_busy_us;
    }
    void OnRunEnd() override
    {
        device_busy_us = runtime_->ComputeDevice().BusyTime();
    }
    double compute_busy_us = 0.0;
    double h2d_busy_us = 0.0;
    double device_busy_us = 0.0;

  private:
    sim::Runtime* runtime_ = nullptr;
};

TEST(ObservabilityTest, BusyTimesCoverEveryKernel)
{
    // The batches' compute busy times add up to everything the device ran
    // in the window, however much of it the stage chain counts as host (a
    // cached TGN batch's memory update runs under its embedding stage's
    // host work).
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 120, dataset.NumNodes(), 9);
    for (const serve::ExecutorKind kind :
         {serve::ExecutorKind::kSerial, serve::ExecutorKind::kPipelined}) {
        SCOPED_TRACE(serve::ToString(kind));
        BusyLedger ledger;
        (void)ServeScenario(scenarios.front(), dataset, kind, 120, &ledger);
        EXPECT_GT(ledger.h2d_busy_us, 0.0);
        EXPECT_GT(ledger.compute_busy_us, 0.0);
        EXPECT_NEAR(ledger.compute_busy_us, ledger.device_busy_us,
                    1e-9 * ledger.device_busy_us);
    }
}

TEST(ObservabilityTest, MergedChromeTraceContainsAllLanes)
{
    const auto dataset = TinyInteractions();
    const auto scenarios =
        scenario::GauntletScenarios(4000.0, 60, dataset.NumNodes(), 9);
    ServingObservability obs;
    ServeScenario(scenarios.front(), dataset,
                  serve::ExecutorKind::kPipelined, 60, &obs);

    const std::string json = obs.MergedChromeTraceJson();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_EQ(json.substr(json.size() - 2), "]}");
    // Device lanes (pid 1) and serving lanes (pid 2) both present.
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":\"serve:compute\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":\"serve:requests\""), std::string::npos);
    // Balanced braces — cheap structural validity check.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

// ------------------------------------------- chrome-trace escaping (core)

TEST(ChromeTraceEscapingTest, HostileEventStringsAreEscaped)
{
    sim::Trace trace;
    sim::TraceEvent e;
    e.kind = sim::EventKind::kKernel;
    e.name = "evil\"name\\with\ncontrol";
    e.category = "cat\"egory";
    e.device = "dev\\ice";
    e.start_us = 1.0;
    e.end_us = 2.0;
    trace.Add(e);

    const std::string json = core::ToChromeTraceJson(trace);
    // The raw quote must never survive unescaped inside a JSON string.
    EXPECT_NE(json.find("evil\\\"name\\\\with\\ncontrol"), std::string::npos)
        << json;
    EXPECT_NE(json.find("cat\\\"egory"), std::string::npos);
    EXPECT_NE(json.find("dev\\\\ice"), std::string::npos);
    // Structural validity: balanced braces and quotes pair up.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace dgnn::obs
