#include "analysis/hazard_checker.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::analysis {

std::string
ResourceFamily(const std::string& resource)
{
    return resource.substr(0, resource.find_first_of(":#"));
}

int
HazardChecker::TimelineOf(const sim::OpRecord& op)
{
    if (op.on_host) {
        return kHost;
    }
    return op.stream == sim::StreamId::kCompute ? kCompute : kCopy;
}

const char*
HazardChecker::TimelineName(int timeline)
{
    switch (timeline) {
      case kHost:
        return "host";
      case kCompute:
        return "compute";
      case kCopy:
        return "copy";
      default:
        return "?";
    }
}

void
HazardChecker::Join(VectorClock& into, const VectorClock& from)
{
    for (int t = 0; t < kTimelineCount; ++t) {
        into[t] = std::max(into[t], from[t]);
    }
}

bool
HazardChecker::HappensBefore(int timeline, int64_t epoch, const VectorClock& now)
{
    return now[timeline] >= epoch;
}

const HazardChecker::VectorClock*
HazardChecker::EventClock(const sim::Event& event) const
{
    const auto it = event_vc_.find(event.id);
    return it == event_vc_.end() ? nullptr : &it->second;
}

void
HazardChecker::OnOp(const sim::OpRecord& op)
{
    const int timeline = TimelineOf(op);

    VectorClock* vc = nullptr;
    if (timeline == kHost) {
        // A blocking D2H copy drains the compute stream before touching its
        // source rows: the host observes everything compute produced.
        if (op.kind == sim::OpKind::kCopyD2H && op.blocking) {
            Join(host_vc_, stream_vc_[kCompute - 1]);
        }
        vc = &host_vc_;
    } else {
        // Device submission: the op happens-after everything the host had
        // observed at issue time, plus earlier work on its in-order stream
        // (already folded into the stream clock).
        vc = &stream_vc_[timeline - 1];
        Join(*vc, host_vc_);
    }
    (*vc)[timeline] += 1;

    AccessSite site;
    site.op_index = op_index_++;
    site.op_name = op.name != nullptr ? *op.name : std::string("<unnamed>");
    site.timeline = TimelineName(timeline);
    site.time_us = op.end_us;

    if (op.access != nullptr) {
        for (const std::string& resource : op.access->reads) {
            CheckRead(resource, timeline, site, *vc);
        }
        for (const std::string& resource : op.access->writes) {
            CheckWrite(resource, timeline, site, *vc);
        }
    }
}

void
HazardChecker::CheckRead(const std::string& resource, int timeline,
                         const AccessSite& site, const VectorClock& now)
{
    ++reads_;
    ResourceState& state = resources_[resource];
    if (state.write_timeline >= 0 && state.write_timeline != timeline &&
        !HappensBefore(state.write_timeline, state.write.clock, now)) {
        RecordHazard(HazardKind::kRaw, resource, state.write.site,
                     state.write_timeline, site, timeline);
    }
    AccessInfo& slot = state.reads[timeline];
    slot.clock = now[timeline];
    slot.site = site;
}

void
HazardChecker::CheckWrite(const std::string& resource, int timeline,
                          const AccessSite& site, const VectorClock& now)
{
    ++writes_;
    ResourceState& state = resources_[resource];
    if (state.write_timeline >= 0 && state.write_timeline != timeline &&
        !HappensBefore(state.write_timeline, state.write.clock, now)) {
        RecordHazard(HazardKind::kWaw, resource, state.write.site,
                     state.write_timeline, site, timeline);
    }
    for (int t = 0; t < kTimelineCount; ++t) {
        const AccessInfo& read = state.reads[t];
        if (read.clock > 0 && t != timeline &&
            !HappensBefore(t, read.clock, now)) {
            RecordHazard(HazardKind::kWar, resource, read.site, t, site,
                         timeline);
        }
    }
    state.write_timeline = timeline;
    state.write.clock = now[timeline];
    state.write.site = site;
    // The write supersedes earlier reads: later conflicts are against it.
    for (AccessInfo& read : state.reads) {
        read = AccessInfo{};
    }
}

void
HazardChecker::RecordHazard(HazardKind kind, const std::string& resource,
                            const AccessSite& prior, int prior_timeline,
                            const AccessSite& current, int current_timeline)
{
    const std::string family = ResourceFamily(resource);
    const std::string key = std::string(ToString(kind)) + "|" + family + "|" +
                            prior.op_name + "|" + current.op_name;
    const auto it = hazard_index_.find(key);
    if (it != hazard_index_.end()) {
        ++hazards_[it->second].occurrences;
        return;
    }

    Hazard hazard;
    hazard.kind = kind;
    hazard.resource = resource;
    hazard.prior = prior;
    hazard.current = current;
    if (current_timeline == kHost) {
        hazard.missing_edge =
            std::string("host access unordered with the ") +
            TimelineName(prior_timeline) +
            " stream: insert WaitEvent(RecordEvent(" +
            TimelineName(prior_timeline) + ")) or Synchronize() first";
    } else if (prior_timeline == kHost) {
        // Streams join the host clock at submission, so this means the
        // host op was issued AFTER the device op yet conflicts with it.
        hazard.missing_edge =
            std::string("stream access unordered with later host work: "
                        "order the host op before submission or fence ") +
            TimelineName(current_timeline) + " behind it";
    } else {
        hazard.missing_edge =
            std::string("insert StreamWaitEvent(") +
            TimelineName(current_timeline) + ", RecordEvent(" +
            TimelineName(prior_timeline) + ")) between the sites";
    }
    hazard_index_.emplace(key, hazards_.size());
    hazards_.push_back(std::move(hazard));
}

void
HazardChecker::OnEventRecorded(const sim::Event& event, sim::StreamId stream)
{
    ++events_recorded_;
    // The event completes when work already enqueued on the stream has
    // finished; waiting on it also observes everything the recording host
    // thread had observed.
    VectorClock snapshot =
        stream_vc_[stream == sim::StreamId::kCompute ? 0 : 1];
    Join(snapshot, host_vc_);
    event_vc_[event.id] = snapshot;
}

void
HazardChecker::OnStreamWaitEvent(sim::StreamId stream, const sim::Event& event)
{
    ++stream_waits_;
    if (const VectorClock* clock = EventClock(event)) {
        Join(stream_vc_[stream == sim::StreamId::kCompute ? 0 : 1], *clock);
    }
}

void
HazardChecker::OnHostWaitEvent(const sim::Event& event)
{
    ++host_waits_;
    if (const VectorClock* clock = EventClock(event)) {
        Join(host_vc_, *clock);
    }
}

void
HazardChecker::OnSynchronize()
{
    ++synchronizes_;
    Join(host_vc_, stream_vc_[0]);
    Join(host_vc_, stream_vc_[1]);
}

HazardReport
HazardChecker::Report() const
{
    HazardReport report;
    report.ops = op_index_;
    report.reads = reads_;
    report.writes = writes_;
    report.resources = static_cast<int64_t>(resources_.size());
    report.events_recorded = events_recorded_;
    report.stream_waits = stream_waits_;
    report.host_waits = host_waits_;
    report.synchronizes = synchronizes_;
    report.hazards = hazards_;
    return report;
}

}  // namespace dgnn::analysis
