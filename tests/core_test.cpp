// Tests for the profiling/bottleneck-analysis core (the paper's primary
// contribution): breakdown, trace analysis, bottleneck analyzers,
// table writer, Table-1 model registry.

#include <gtest/gtest.h>

#include "support/check.hpp"

#include "core/bottleneck.hpp"
#include "core/breakdown.hpp"
#include "core/latency_histogram.hpp"
#include "core/model_summary.hpp"
#include "core/table_writer.hpp"
#include "core/trace_analysis.hpp"
#include "sim/runtime.hpp"

namespace dgnn::core {
namespace {

sim::Runtime
MakeRuntime(sim::ExecMode mode = sim::ExecMode::kHybrid)
{
    sim::RuntimeConfig c;
    c.mode = mode;
    return sim::Runtime(c);
}

sim::KernelDesc
Kernel(int64_t flops = 1000000, int64_t items = 1000)
{
    sim::KernelDesc k;
    k.name = "k";
    k.flops = flops;
    k.parallel_items = items;
    return k;
}

TEST(BreakdownTest, SharesSumToHundred)
{
    sim::Runtime rt = MakeRuntime();
    rt.ResetMeasurementWindow();
    {
        sim::CategoryScope s(rt, "GNN");
        rt.RunHostFor("x", 60.0);
    }
    {
        sim::CategoryScope s(rt, "RNN");
        rt.RunHostFor("y", 40.0);
    }
    const Breakdown b = Breakdown::FromRuntime(rt);
    double total = 0.0;
    for (const auto& e : b.Entries()) {
        total += e.share_pct;
    }
    EXPECT_NEAR(total, 100.0, 1e-9);
    EXPECT_NEAR(b.SharePct("GNN"), 60.0, 1e-9);
    EXPECT_NEAR(b.TimeUs("RNN"), 40.0, 1e-9);
    EXPECT_DOUBLE_EQ(b.SharePct("absent"), 0.0);
    EXPECT_EQ(b.Categories().front(), "GNN");  // sorted by share
}

TEST(TraceAnalysisTest, UtilizationTimelineCoverage)
{
    sim::Runtime rt = MakeRuntime();
    rt.Launch(Kernel());
    (void)rt.Synchronize();
    const std::string gpu = rt.Gpu().Name();
    const auto timeline =
        UtilizationTimeline(rt.GetTrace(), gpu, 0.0, rt.Now(), rt.Now() / 4.0);
    ASSERT_GE(timeline.size(), 4u);
    double max_util = 0.0;
    for (const auto& s : timeline) {
        EXPECT_GE(s.utilization_pct, 0.0);
        EXPECT_LE(s.utilization_pct, 100.0);
        max_util = std::max(max_util, s.utilization_pct);
    }
    EXPECT_GT(max_util, 0.0);
    EXPECT_THROW(UtilizationTimeline(rt.GetTrace(), gpu, 0.0, 1.0, 0.0), Error);
}

TEST(TraceAnalysisTest, BusyAndTransferQueries)
{
    sim::Runtime rt = MakeRuntime();
    rt.Launch(Kernel());
    rt.CopyToDevice(1 << 20, "in");
    rt.CopyToHost(1 << 10, "out");
    (void)rt.Synchronize();
    EXPECT_EQ(TransferredBytes(rt.GetTrace(), sim::CopyDirection::kHostToDevice, 0.0,
                               rt.Now()),
              1 << 20);
    EXPECT_EQ(TransferredBytes(rt.GetTrace(), sim::CopyDirection::kDeviceToHost, 0.0,
                               rt.Now()),
              1 << 10);
}

TEST(TraceAnalysisTest, ChromeTraceJsonWellFormed)
{
    sim::Runtime rt = MakeRuntime();
    rt.Launch(Kernel());
    (void)rt.Synchronize();
    const std::string json = ToChromeTraceJson(rt.GetTrace());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(BottleneckTest, TemporalDependencySeverityForTinyKernels)
{
    sim::Runtime rt = MakeRuntime();
    rt.ResetMeasurementWindow();
    for (int i = 0; i < 20; ++i) {
        rt.Launch(Kernel(1000, 1));
        (void)rt.Synchronize();
        rt.RunHostFor("gap", 500.0);  // long CPU gaps -> low utilization
    }
    const TemporalDependencyReport r = AnalyzeTemporalDependency(rt);
    EXPECT_LT(r.compute_utilization_pct, 20.0);
    EXPECT_EQ(r.kernel_count, 20);
    EXPECT_GT(r.launch_overhead_share_pct, 0.0);
    EXPECT_NE(r.severity, Severity::kNone);
}

TEST(BottleneckTest, WorkloadImbalanceDetectsCpuBound)
{
    sim::Runtime rt = MakeRuntime();
    rt.ResetMeasurementWindow();
    rt.RunHostFor("sampling", 10000.0);
    rt.Launch(Kernel());
    (void)rt.Synchronize();
    const WorkloadImbalanceReport r = AnalyzeWorkloadImbalance(rt);
    EXPECT_GT(r.cpu_busy_us, r.gpu_busy_us);
    EXPECT_GT(r.imbalance_ratio, 1.5);
    EXPECT_NE(r.severity, Severity::kNone);
}

TEST(BottleneckTest, DataMovementShare)
{
    sim::Runtime rt = MakeRuntime();
    rt.ResetMeasurementWindow();
    rt.CopyToDevice(64 << 20, "big");
    rt.Launch(Kernel());
    (void)rt.Synchronize();
    const DataMovementReport r = AnalyzeDataMovement(rt);
    EXPECT_EQ(r.h2d_bytes, 64 << 20);
    EXPECT_GT(r.transfer_share_pct, 40.0);
    EXPECT_EQ(r.severity, Severity::kSevere);
}

TEST(BottleneckTest, WarmupRatioAndReportText)
{
    sim::Runtime rt = MakeRuntime();
    rt.EnsureWarm(1 << 20);
    rt.ResetMeasurementWindow();
    rt.Launch(Kernel());
    (void)rt.Synchronize();
    const BottleneckReport report =
        AnalyzeAll(rt, "TestModel", "bs=32", 12.0, 1000.0);
    EXPECT_GT(report.warmup.one_time_vs_iteration, 30.0);
    EXPECT_EQ(report.warmup.severity, Severity::kSevere);
    const std::string text = report.ToText();
    EXPECT_NE(text.find("TestModel"), std::string::npos);
    EXPECT_NE(text.find("temporal data dependency"), std::string::npos);
    EXPECT_NE(text.find("workload imbalance"), std::string::npos);
    EXPECT_NE(text.find("data movement"), std::string::npos);
    EXPECT_NE(text.find("GPU warm-up"), std::string::npos);
}

TEST(TableWriterTest, AlignmentAndContents)
{
    TableWriter t({"model", "time"});
    t.AddRow({"TGAT", TableWriter::Num(12.345, 1)});
    t.AddRow({"TGN", TableWriter::TimeWithShare(5.5, 49.6)});
    const std::string s = t.ToString();
    EXPECT_NE(s.find("| model"), std::string::npos);
    EXPECT_NE(s.find("12.3"), std::string::npos);
    EXPECT_NE(s.find("5.50 (50%)"), std::string::npos);
    EXPECT_EQ(t.RowCount(), 2u);
    EXPECT_THROW(t.AddRow({"only-one"}), Error);
    EXPECT_THROW(TableWriter({}), Error);
}

TEST(ModelSummaryTest, TableOneContents)
{
    const auto& all = AllModelSummaries();
    ASSERT_EQ(all.size(), 8u);
    // Paper Table 1 order and properties.
    EXPECT_EQ(all[0].name, "JODIE");
    EXPECT_EQ(all[0].type, DgnnType::kContinuous);
    EXPECT_TRUE(all[0].evolving_weights);
    EXPECT_FALSE(all[0].evolving_topology);

    const ModelSummary& egcn = FindModelSummary("EvolveGCN");
    EXPECT_EQ(egcn.type, DgnnType::kDiscrete);
    EXPECT_TRUE(egcn.evolving_topology);
    EXPECT_EQ(egcn.time_encoding, "RNN");

    const ModelSummary& ldg = FindModelSummary("LDG");
    EXPECT_TRUE(ldg.evolving_weights);

    EXPECT_THROW(FindModelSummary("NotAModel"), Error);
    EXPECT_STREQ(ToString(DgnnType::kDiscrete), "discrete");
}

TEST(ModelSummaryTest, ContinuousModelsCount)
{
    int continuous = 0;
    for (const auto& m : AllModelSummaries()) {
        if (m.type == DgnnType::kContinuous) {
            ++continuous;
        }
    }
    EXPECT_EQ(continuous, 5);  // JODIE, TGN, TGAT, DyRep, LDG
}

TEST(LatencyHistogramTest, ExactPercentilesOnUniformDistribution)
{
    LatencyHistogram h;
    for (int i = 1; i <= 1000; ++i) {
        h.Record(static_cast<double>(i));
    }
    EXPECT_EQ(h.Count(), 1000);
    EXPECT_DOUBLE_EQ(h.Min(), 1.0);
    EXPECT_DOUBLE_EQ(h.Max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
    // Quantiles within the 1% bucket resolution of the exact order stats.
    EXPECT_NEAR(h.P50(), 500.0, 500.0 * 0.011);
    EXPECT_NEAR(h.P90(), 900.0, 900.0 * 0.011);
    EXPECT_NEAR(h.P99(), 990.0, 990.0 * 0.011);
    // Extremes are exact, not bucket-rounded.
    EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
}

TEST(LatencyHistogramTest, ExactPercentilesOnPointMassAndBimodal)
{
    // Point mass: every quantile is the single value.
    LatencyHistogram point;
    for (int i = 0; i < 100; ++i) {
        point.Record(42.0);
    }
    EXPECT_DOUBLE_EQ(point.P50(), 42.0);
    EXPECT_DOUBLE_EQ(point.P99(), 42.0);
    EXPECT_DOUBLE_EQ(point.Max(), 42.0);

    // Bimodal 90/10 mix: p50 sits on the low mode, p99 on the high one.
    LatencyHistogram mix;
    for (int i = 0; i < 90; ++i) {
        mix.Record(10.0);
    }
    for (int i = 0; i < 10; ++i) {
        mix.Record(10000.0);
    }
    EXPECT_NEAR(mix.P50(), 10.0, 10.0 * 0.011);
    EXPECT_NEAR(mix.Quantile(0.95), 10000.0, 10000.0 * 0.011);
}

TEST(LatencyHistogramTest, CountsOverflowsAboveTheCeiling)
{
    LatencyHistogram h(1.0, 1000.0, 1.5);
    h.Record(10.0);
    h.Record(999.0);
    EXPECT_EQ(h.OverflowCount(), 0);

    // Samples beyond max_value_us still clamp into the top bucket (the
    // quantile path is unchanged), but the truncation is now counted — a
    // non-zero OverflowCount flags a p99 biased low under saturation.
    h.Record(5000.0);
    h.Record(1e9);
    EXPECT_EQ(h.OverflowCount(), 2);
    EXPECT_EQ(h.Count(), 4);
    EXPECT_DOUBLE_EQ(h.Max(), 1e9);  // exact max still tracked on the side

    // Merge accumulates overflow counts too.
    LatencyHistogram other(1.0, 1000.0, 1.5);
    other.Record(2000.0);
    h.Merge(other);
    EXPECT_EQ(h.OverflowCount(), 3);
    EXPECT_EQ(h.Count(), 5);
}

TEST(LatencyHistogramTest, EmptyHistogramBehaviour)
{
    LatencyHistogram h;
    EXPECT_TRUE(h.Empty());
    EXPECT_EQ(h.Count(), 0);
    EXPECT_DOUBLE_EQ(h.Min(), 0.0);
    EXPECT_DOUBLE_EQ(h.Max(), 0.0);
    EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.P50(), 0.0);
    EXPECT_DOUBLE_EQ(h.P99(), 0.0);
    EXPECT_THROW(h.Quantile(1.5), Error);
    EXPECT_THROW(h.Quantile(-0.1), Error);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording)
{
    LatencyHistogram low;
    LatencyHistogram high;
    LatencyHistogram combined;
    for (int i = 1; i <= 500; ++i) {
        low.Record(static_cast<double>(i));
        combined.Record(static_cast<double>(i));
    }
    for (int i = 501; i <= 1000; ++i) {
        high.Record(static_cast<double>(i));
        combined.Record(static_cast<double>(i));
    }

    low.Merge(high);
    EXPECT_EQ(low.Count(), combined.Count());
    EXPECT_DOUBLE_EQ(low.Min(), combined.Min());
    EXPECT_DOUBLE_EQ(low.Max(), combined.Max());
    EXPECT_DOUBLE_EQ(low.Mean(), combined.Mean());
    for (const double q : {0.1, 0.5, 0.9, 0.99}) {
        EXPECT_DOUBLE_EQ(low.Quantile(q), combined.Quantile(q));
    }

    // Merging an empty histogram changes nothing.
    const double p99_before = low.P99();
    low.Merge(LatencyHistogram());
    EXPECT_DOUBLE_EQ(low.P99(), p99_before);

    // Layout mismatch is an error.
    LatencyHistogram other_layout(1.0, 100.0, 1.5);
    EXPECT_THROW(low.Merge(other_layout), Error);
}

TEST(LatencyHistogramTest, MergePreservesTotalsWithOverflowAndEmpties)
{
    // Conservation under every merge direction: Count, OverflowCount, and
    // the sample sum (via Mean * Count) must all be additive — including
    // when one side is empty or both sides clamp samples above the ceiling.
    LatencyHistogram a(1.0, 1000.0, 1.5);
    a.Record(5.0);
    a.Record(700.0);
    a.Record(4000.0);  // overflow
    LatencyHistogram b(1.0, 1000.0, 1.5);
    b.Record(30.0);
    b.Record(2e6);  // overflow
    b.Record(9e6);  // overflow
    const double sum_a = a.Mean() * static_cast<double>(a.Count());
    const double sum_b = b.Mean() * static_cast<double>(b.Count());

    // Empty into non-empty: a no-op on every total.
    a.Merge(LatencyHistogram(1.0, 1000.0, 1.5));
    EXPECT_EQ(a.Count(), 3);
    EXPECT_EQ(a.OverflowCount(), 1);
    EXPECT_DOUBLE_EQ(a.Mean() * 3.0, sum_a);

    // Non-empty into empty: the empty side adopts a's totals exactly.
    LatencyHistogram adopted(1.0, 1000.0, 1.5);
    adopted.Merge(a);
    EXPECT_EQ(adopted.Count(), 3);
    EXPECT_EQ(adopted.OverflowCount(), 1);
    EXPECT_DOUBLE_EQ(adopted.Min(), a.Min());
    EXPECT_DOUBLE_EQ(adopted.Max(), a.Max());
    EXPECT_DOUBLE_EQ(adopted.Mean(), a.Mean());
    EXPECT_DOUBLE_EQ(adopted.P99(), a.P99());

    // Empty into empty stays empty.
    LatencyHistogram still_empty(1.0, 1000.0, 1.5);
    still_empty.Merge(LatencyHistogram(1.0, 1000.0, 1.5));
    EXPECT_TRUE(still_empty.Empty());
    EXPECT_EQ(still_empty.OverflowCount(), 0);

    // Overflow counts and sums are additive across a real merge.
    a.Merge(b);
    EXPECT_EQ(a.Count(), 6);
    EXPECT_EQ(a.OverflowCount(), 3);
    EXPECT_DOUBLE_EQ(a.Mean() * 6.0, sum_a + sum_b);
    EXPECT_DOUBLE_EQ(a.Min(), 5.0);
    EXPECT_DOUBLE_EQ(a.Max(), 9e6);
}

TEST(RunningStatTest, TracksMinMeanMaxAndMerges)
{
    RunningStat s;
    EXPECT_EQ(s.Count(), 0);
    EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
    s.Record(4.0);
    s.Record(8.0);
    s.Record(6.0);
    EXPECT_EQ(s.Count(), 3);
    EXPECT_DOUBLE_EQ(s.Min(), 4.0);
    EXPECT_DOUBLE_EQ(s.Max(), 8.0);
    EXPECT_DOUBLE_EQ(s.Mean(), 6.0);

    RunningStat t;
    t.Record(100.0);
    s.Merge(t);
    EXPECT_EQ(s.Count(), 4);
    EXPECT_DOUBLE_EQ(s.Max(), 100.0);
    EXPECT_DOUBLE_EQ(s.Mean(), 29.5);
}

TEST(RunningStatTest, WelfordVarianceMatchesTheTwoPassFormula)
{
    const std::vector<double> values = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    RunningStat s;
    for (const double v : values) {
        s.Record(v);
    }
    // Textbook population variance of this series is exactly 4.
    EXPECT_DOUBLE_EQ(s.Variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.StdDev(), 2.0);

    // Welford stays stable when the mean dwarfs the spread — the naive
    // sum-of-squares formula loses all significant digits here.
    RunningStat shifted;
    for (const double v : values) {
        shifted.Record(v + 1e9);
    }
    EXPECT_NEAR(shifted.Variance(), 4.0, 1e-4);
}

TEST(RunningStatTest, VarianceEdgeCases)
{
    RunningStat s;
    EXPECT_DOUBLE_EQ(s.Variance(), 0.0);  // empty
    EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
    s.Record(42.0);
    EXPECT_DOUBLE_EQ(s.Variance(), 0.0);  // one sample
    s.Record(42.0);
    EXPECT_DOUBLE_EQ(s.Variance(), 0.0);  // no spread
}

TEST(RunningStatTest, MergeReducesSplitStreamsToTheCombinedMoments)
{
    // Split one series arbitrarily; merged moments must equal the
    // single-stream moments (the Chan et al. parallel combination).
    const std::vector<double> values = {1.0, 5.0, 2.5, 8.0, 3.0, 9.5, 4.0};
    RunningStat whole;
    for (const double v : values) {
        whole.Record(v);
    }
    RunningStat left;
    RunningStat right;
    for (size_t i = 0; i < values.size(); ++i) {
        (i < 3 ? left : right).Record(values[i]);
    }
    left.Merge(right);
    EXPECT_EQ(left.Count(), whole.Count());
    EXPECT_DOUBLE_EQ(left.Mean(), whole.Mean());
    EXPECT_NEAR(left.Variance(), whole.Variance(), 1e-12);
    EXPECT_DOUBLE_EQ(left.Min(), whole.Min());
    EXPECT_DOUBLE_EQ(left.Max(), whole.Max());
}

TEST(RunningStatTest, MergeEmptyAndSingleSampleCases)
{
    RunningStat empty;
    RunningStat loaded;
    loaded.Record(3.0);
    loaded.Record(7.0);

    // Merging an empty stat is a no-op.
    RunningStat a = loaded;
    a.Merge(empty);
    EXPECT_EQ(a.Count(), 2);
    EXPECT_DOUBLE_EQ(a.Variance(), loaded.Variance());

    // Merging INTO an empty stat adopts the other side wholesale.
    RunningStat b;
    b.Merge(loaded);
    EXPECT_EQ(b.Count(), 2);
    EXPECT_DOUBLE_EQ(b.Mean(), 5.0);
    EXPECT_DOUBLE_EQ(b.Variance(), 4.0);

    // One-sample merges: variance emerges purely from the cross term.
    RunningStat one;
    one.Record(10.0);
    RunningStat other;
    other.Record(20.0);
    one.Merge(other);
    EXPECT_EQ(one.Count(), 2);
    EXPECT_DOUBLE_EQ(one.Mean(), 15.0);
    EXPECT_DOUBLE_EQ(one.Variance(), 25.0);
}

}  // namespace
}  // namespace dgnn::core
