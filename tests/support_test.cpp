// Tests for the error-handling substrate and failure injection across the
// library: user-facing precondition violations must throw dgnn::Error with
// actionable messages, and resource exhaustion must surface cleanly.

#include <vector>

#include <gtest/gtest.h>

#include "models/tgat.hpp"
#include "models/tgn.hpp"
#include "support/check.hpp"

namespace dgnn {
namespace {

TEST(CheckTest, PassingConditionIsSilent)
{
    EXPECT_NO_THROW(DGNN_CHECK(1 + 1 == 2, "math works"));
}

TEST(CheckTest, FailingConditionThrowsErrorWithMessage)
{
    try {
        DGNN_CHECK(false, "widget ", 42, " exploded");
        FAIL() << "DGNN_CHECK did not throw";
    } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("widget 42 exploded"), std::string::npos);
        EXPECT_NE(what.find("check failed"), std::string::npos);
        // Location info for debugging.
        EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    }
}

TEST(CheckTest, ErrorIsARuntimeError)
{
    // Callers may catch std::runtime_error generically.
    EXPECT_THROW(DGNN_CHECK(false, "generic"), std::runtime_error);
}

TEST(FailureInjectionTest, DeviceOutOfMemorySurfacesAsError)
{
    // A GPU with a tiny memory capacity must reject model working sets with
    // a clean Error, not UB.
    sim::TopologyNode node;
    node.gpu.memory_bytes = 1024;  // 1 KiB GPU
    sim::RuntimeConfig config;
    config.mode = sim::ExecMode::kHybrid;
    config.topology = sim::Topology{};
    config.topology.AddNode(node);
    sim::Runtime rt(config);

    data::InteractionSpec spec;
    spec.num_users = 30;
    spec.num_items = 20;
    spec.num_events = 100;
    spec.edge_feature_dim = 16;
    const auto ds = data::GenerateInteractions(spec);
    models::Tgn model(ds, models::TgnConfig{16, 16, 2, 11});
    models::RunConfig run;
    run.batch_size = 16;
    run.num_neighbors = 4;
    EXPECT_THROW(model.RunInference(rt, run), Error);
}

TEST(FailureInjectionTest, InvalidModelConfigRejected)
{
    data::InteractionSpec spec;
    spec.num_users = 10;
    spec.num_items = 5;
    spec.num_events = 20;
    spec.edge_feature_dim = 4;
    const auto ds = data::GenerateInteractions(spec);
    // Zero attention layers is a configuration error, caught at build time.
    EXPECT_THROW(models::Tgat(ds, models::TgatConfig{16, 2, 0, 4, 7, false}),
                 Error);
    // The charged path samples two hops at most, so a third layer is too.
    EXPECT_THROW(models::Tgat(ds, models::TgatConfig{16, 2, 3, 4, 7, false}),
                 Error);
    // Neighborhoods that do not match the targets, or second-hop ones for
    // a one-layer model.
    const models::Tgat one_layer(ds, models::TgatConfig{16, 2, 1, 4, 7, false});
    const graph::TemporalAdjacency adjacency(ds.stream);
    graph::TemporalNeighborSampler sampler(adjacency,
                                           graph::SamplingStrategy::kUniform, 3);
    const std::vector<int64_t> node = {0};
    const std::vector<double> time = {1.0};
    const auto hoods = sampler.SampleBatch(node, time, 4);
    EXPECT_THROW((void)one_layer.ComputeEmbeddings(node, time, {}, {}), Error);
    EXPECT_THROW((void)one_layer.ComputeEmbeddings(node, time, hoods, hoods), Error);
    // Attention head count must divide the embedding dimension.
    EXPECT_THROW(models::Tgat(ds, models::TgatConfig{10, 4, 1, 4, 7, false}),
                 Error);
}

TEST(FailureInjectionTest, BatchSizeZeroRejected)
{
    data::InteractionSpec spec;
    spec.num_users = 10;
    spec.num_items = 5;
    spec.num_events = 20;
    spec.edge_feature_dim = 4;
    const auto ds = data::GenerateInteractions(spec);
    models::Tgn model(ds, models::TgnConfig{8, 8, 2, 11});
    sim::Runtime rt = models::MakeRuntime(sim::ExecMode::kCpuOnly);
    models::RunConfig run;
    run.mode = sim::ExecMode::kCpuOnly;
    run.batch_size = 0;
    EXPECT_THROW(model.RunInference(rt, run), Error);
}

TEST(FormatDurationTest, UnitSelection)
{
    EXPECT_EQ(sim::FormatDuration(12.0), "12.00 us");
    EXPECT_EQ(sim::FormatDuration(12000.0), "12.00 ms");
    EXPECT_EQ(sim::FormatDuration(3.2e6), "3.20 s");
    EXPECT_EQ(sim::FormatDuration(-1500.0), "-1.50 ms");
}

}  // namespace
}  // namespace dgnn
