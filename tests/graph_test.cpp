// Tests for the dynamic-graph substrate: snapshots, event streams,
// temporal adjacency, snapshot sequences.

#include <gtest/gtest.h>

#include "graph/event_stream.hpp"
#include "graph/snapshot.hpp"
#include "graph/snapshot_sequence.hpp"
#include "support/check.hpp"

namespace dgnn::graph {
namespace {

TEST(SnapshotTest, CsrStructure)
{
    const std::vector<Edge> edges = {{0, 1, 1.0f}, {0, 2, 2.0f}, {2, 0, 3.0f}};
    GraphSnapshot g(3, edges);
    EXPECT_EQ(g.NumNodes(), 3);
    EXPECT_EQ(g.NumEdges(), 3);
    EXPECT_EQ(g.Degree(0), 2);
    EXPECT_EQ(g.Degree(1), 0);
    EXPECT_EQ(g.Degree(2), 1);
}

TEST(SnapshotTest, NeighborsSortedWithWeights)
{
    const std::vector<Edge> edges = {{0, 2, 2.0f}, {0, 1, 1.0f}};
    GraphSnapshot g(3, edges);
    const auto nbrs = g.Neighbors(0);
    ASSERT_EQ(nbrs.size(), 2u);
    EXPECT_EQ(nbrs[0], 1);
    EXPECT_EQ(nbrs[1], 2);
    const auto w = g.Weights(0);
    EXPECT_FLOAT_EQ(w[0], 1.0f);
    EXPECT_FLOAT_EQ(w[1], 2.0f);
}

TEST(SnapshotTest, OutOfRangeEdgeThrows)
{
    EXPECT_THROW(GraphSnapshot(2, {{0, 5, 1.0f}}), Error);
    EXPECT_THROW(GraphSnapshot(2, {{-1, 0, 1.0f}}), Error);
}

TEST(SnapshotTest, EmptyGraph)
{
    GraphSnapshot g(4, {});
    EXPECT_EQ(g.NumEdges(), 0);
    EXPECT_EQ(g.Degree(3), 0);
    EXPECT_TRUE(g.Neighbors(0).empty());
}

TEST(SnapshotTest, TopologyBytesPositive)
{
    GraphSnapshot g(3, {{0, 1, 1.0f}});
    EXPECT_GT(g.TopologyBytes(), 0);
}

TEST(SnapshotTest, CommonEdges)
{
    GraphSnapshot a(3, {{0, 1, 1.0f}, {1, 2, 1.0f}, {2, 0, 1.0f}});
    GraphSnapshot b(3, {{0, 1, 1.0f}, {1, 0, 1.0f}, {2, 0, 1.0f}});
    EXPECT_EQ(a.CommonEdges(b), 2);  // 0->1 and 2->0
    EXPECT_EQ(a.CommonEdges(a), 3);
}

TEST(EventStreamTest, SortsByTime)
{
    std::vector<TemporalEvent> events = {
        {0, 1, 5.0, 0}, {1, 2, 1.0, 1}, {2, 0, 3.0, 2}};
    EventStream s(3, std::move(events));
    EXPECT_EQ(s.NumEvents(), 3);
    EXPECT_DOUBLE_EQ(s.Event(0).time, 1.0);
    EXPECT_DOUBLE_EQ(s.Event(1).time, 3.0);
    EXPECT_DOUBLE_EQ(s.Event(2).time, 5.0);
    EXPECT_DOUBLE_EQ(s.StartTime(), 1.0);
    EXPECT_DOUBLE_EQ(s.EndTime(), 5.0);
}

TEST(EventStreamTest, StableSortKeepsSimultaneousOrder)
{
    std::vector<TemporalEvent> events = {{0, 1, 2.0, 10}, {1, 2, 2.0, 11}};
    EventStream s(3, std::move(events));
    EXPECT_EQ(s.Event(0).feature_index, 10);
    EXPECT_EQ(s.Event(1).feature_index, 11);
}

TEST(EventStreamTest, SliceAndBatches)
{
    std::vector<TemporalEvent> events;
    for (int i = 0; i < 10; ++i) {
        events.push_back({0, 1, static_cast<double>(i), i});
    }
    EventStream s(2, std::move(events));
    const auto slice = s.Slice(3, 7);
    EXPECT_EQ(slice.size(), 4u);
    EXPECT_DOUBLE_EQ(slice[0].time, 3.0);
    EXPECT_THROW(s.Slice(5, 3), Error);
}

TEST(EventStreamTest, OutOfRangeNodeThrows)
{
    std::vector<TemporalEvent> events = {{0, 9, 1.0, 0}};
    EXPECT_THROW(EventStream(3, std::move(events)), Error);
}

TEST(EventStreamTest, EmptyStream)
{
    EventStream s(5, {});
    EXPECT_EQ(s.NumEvents(), 0);
    EXPECT_DOUBLE_EQ(s.StartTime(), 0.0);
    EXPECT_DOUBLE_EQ(s.EndTime(), 0.0);
}

TEST(TemporalAdjacencyTest, HistoryBothDirections)
{
    std::vector<TemporalEvent> events = {{0, 1, 1.0, 0}, {0, 2, 2.0, 1}};
    EventStream s(3, std::move(events));
    TemporalAdjacency adj(s);
    EXPECT_EQ(adj.History(0).size(), 2u);
    EXPECT_EQ(adj.History(1).size(), 1u);
    EXPECT_EQ(adj.History(1)[0].neighbor, 0);
    EXPECT_EQ(adj.History(2)[0].neighbor, 0);
}

TEST(TemporalAdjacencyTest, HistoryIsTimeSorted)
{
    std::vector<TemporalEvent> events = {
        {0, 1, 3.0, 0}, {0, 2, 1.0, 1}, {0, 1, 2.0, 2}};
    EventStream s(3, std::move(events));
    TemporalAdjacency adj(s);
    const auto h = adj.History(0);
    ASSERT_EQ(h.size(), 3u);
    EXPECT_LE(h[0].time, h[1].time);
    EXPECT_LE(h[1].time, h[2].time);
}

TEST(TemporalAdjacencyTest, CountBeforeBisection)
{
    std::vector<TemporalEvent> events = {
        {0, 1, 1.0, 0}, {0, 1, 2.0, 1}, {0, 1, 3.0, 2}};
    EventStream s(2, std::move(events));
    TemporalAdjacency adj(s);
    EXPECT_EQ(adj.CountBefore(0, 0.5), 0);
    EXPECT_EQ(adj.CountBefore(0, 2.0), 1);   // strictly before
    EXPECT_EQ(adj.CountBefore(0, 2.5), 2);
    EXPECT_EQ(adj.CountBefore(0, 100.0), 3);
}

TEST(SnapshotSequenceTest, StepsAndTotalEdges)
{
    std::vector<GraphSnapshot> snaps;
    snaps.emplace_back(3, std::vector<Edge>{{0, 1, 1.0f}});
    snaps.emplace_back(3, std::vector<Edge>{{0, 1, 1.0f}, {1, 2, 1.0f}});
    SnapshotSequence seq(3, std::move(snaps));
    EXPECT_EQ(seq.NumSteps(), 2);
    EXPECT_EQ(seq.TotalEdges(), 3);
    EXPECT_EQ(seq.Step(1).NumEdges(), 2);
    EXPECT_THROW(seq.Step(2), Error);
}

TEST(SnapshotSequenceTest, NodeCountMismatchThrows)
{
    std::vector<GraphSnapshot> snaps;
    snaps.emplace_back(2, std::vector<Edge>{});
    EXPECT_THROW(SnapshotSequence(3, std::move(snaps)), Error);
}

TEST(SnapshotSequenceTest, OverlapMetrics)
{
    std::vector<GraphSnapshot> snaps;
    snaps.emplace_back(3, std::vector<Edge>{{0, 1, 1.0f}, {1, 2, 1.0f}});
    snaps.emplace_back(3, std::vector<Edge>{{0, 1, 1.0f}, {2, 0, 1.0f}});
    SnapshotSequence seq(3, std::move(snaps));
    // Common: {0->1}. Union: 3 edges. Jaccard = 1/3.
    EXPECT_NEAR(seq.MeanOverlap(), 1.0 / 3.0, 1e-9);
}

TEST(SnapshotSequenceTest, IdenticalSnapshotsFullOverlap)
{
    std::vector<Edge> edges = {{0, 1, 1.0f}, {1, 2, 1.0f}};
    std::vector<GraphSnapshot> snaps;
    snaps.emplace_back(3, edges);
    snaps.emplace_back(3, edges);
    SnapshotSequence seq(3, std::move(snaps));
    EXPECT_DOUBLE_EQ(seq.MeanOverlap(), 1.0);
}

}  // namespace
}  // namespace dgnn::graph
