#pragma once

/// @file
/// Continuous-time dynamic graph (CTDG): a time-ordered stream of
/// interaction events between nodes, as consumed by JODIE, TGAT, TGN,
/// DyRep, and LDG.

#include <cstdint>
#include <span>
#include <vector>

namespace dgnn::graph {

/// One timestamped interaction (src interacts with dst at time t).
struct TemporalEvent {
    int64_t src = 0;
    int64_t dst = 0;
    double time = 0.0;
    /// Index into the dataset's edge-feature matrix (-1 when featureless).
    int64_t feature_index = -1;
};

/// Immutable, time-sorted event stream over a fixed node id space.
class EventStream {
  public:
    /// Takes ownership of @p events; verifies node range and sorts by time
    /// (stable, so simultaneous events keep insertion order).
    EventStream(int64_t num_nodes, std::vector<TemporalEvent> events);

    int64_t NumNodes() const { return num_nodes_; }
    int64_t NumEvents() const { return static_cast<int64_t>(events_.size()); }

    const TemporalEvent& Event(int64_t index) const;
    const std::vector<TemporalEvent>& Events() const { return events_; }

    /// Events [begin, end) as a span — one mini-batch.
    std::span<const TemporalEvent> Slice(int64_t begin, int64_t end) const;

    /// Earliest / latest event time (0 when empty).
    double StartTime() const;
    double EndTime() const;

  private:
    int64_t num_nodes_;
    std::vector<TemporalEvent> events_;
};

/// Per-node time-sorted interaction history derived from an EventStream.
/// This is the index structure temporal neighbor sampling bisects.
class TemporalAdjacency {
  public:
    explicit TemporalAdjacency(const EventStream& stream);

    /// One historical neighbor of a node.
    struct Entry {
        int64_t neighbor;
        double time;
        int64_t feature_index;
    };

    int64_t NumNodes() const { return static_cast<int64_t>(history_.size()); }

    /// Full history of @p node, ascending in time.
    std::span<const Entry> History(int64_t node) const;

    /// Number of interactions of @p node strictly before @p time
    /// (binary search — the "bisection" the paper describes).
    int64_t CountBefore(int64_t node, double time) const;

  private:
    std::vector<std::vector<Entry>> history_;
};

}  // namespace dgnn::graph
