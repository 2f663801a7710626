#include "graph/event_stream.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::graph {

EventStream::EventStream(int64_t num_nodes, std::vector<TemporalEvent> events)
    : num_nodes_(num_nodes), events_(std::move(events))
{
    DGNN_CHECK(num_nodes >= 0, "negative node count ", num_nodes);
    for (const TemporalEvent& e : events_) {
        DGNN_CHECK(e.src >= 0 && e.src < num_nodes && e.dst >= 0 && e.dst < num_nodes,
                   "event (", e.src, ", ", e.dst, ") out of range for ", num_nodes,
                   " nodes");
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const TemporalEvent& a, const TemporalEvent& b) {
                         return a.time < b.time;
                     });
}

const TemporalEvent&
EventStream::Event(int64_t index) const
{
    DGNN_CHECK(index >= 0 && index < NumEvents(), "event index ", index,
               " out of range for ", NumEvents(), " events");
    return events_[static_cast<size_t>(index)];
}

std::span<const TemporalEvent>
EventStream::Slice(int64_t begin, int64_t end) const
{
    DGNN_CHECK(begin >= 0 && begin <= end && end <= NumEvents(), "bad slice [", begin,
               ", ", end, ") of ", NumEvents(), " events");
    return {events_.data() + begin, static_cast<size_t>(end - begin)};
}

double
EventStream::StartTime() const
{
    return events_.empty() ? 0.0 : events_.front().time;
}

double
EventStream::EndTime() const
{
    return events_.empty() ? 0.0 : events_.back().time;
}

TemporalAdjacency::TemporalAdjacency(const EventStream& stream)
    : history_(static_cast<size_t>(stream.NumNodes()))
{
    // Events arrive in time order, so per-node histories are built sorted.
    for (const TemporalEvent& e : stream.Events()) {
        history_[static_cast<size_t>(e.src)].push_back(
            Entry{e.dst, e.time, e.feature_index});
        history_[static_cast<size_t>(e.dst)].push_back(
            Entry{e.src, e.time, e.feature_index});
    }
}

std::span<const TemporalAdjacency::Entry>
TemporalAdjacency::History(int64_t node) const
{
    DGNN_CHECK(node >= 0 && node < NumNodes(), "node ", node, " out of range");
    const auto& h = history_[static_cast<size_t>(node)];
    return {h.data(), h.size()};
}

int64_t
TemporalAdjacency::CountBefore(int64_t node, double time) const
{
    const auto h = History(node);
    const auto it = std::lower_bound(
        h.begin(), h.end(), time,
        [](const Entry& e, double t) { return e.time < t; });
    return static_cast<int64_t>(it - h.begin());
}

}  // namespace dgnn::graph
