#pragma once

/// @file
/// Happens-before hazard checker for the simulated async runtime — the
/// tentpole of src/analysis/. Attach one to a sim::Runtime
/// (runtime.SetObserver(&checker)) and it reconstructs the run's
/// happens-before order from the observer hooks with vector clocks over
/// three logical timelines (host thread, compute stream, copy stream).
/// Every operation issued inside an AccessScope declares the logical
/// resources it reads and writes (staging-buffer slots, cache-row
/// residency generations, host stores); a pair of conflicting accesses
/// with no happens-before edge between them is reported as a RAW / WAR /
/// WAW hazard, with both access sites and the synchronization edge whose
/// absence left them unordered.
///
/// The happens-before model (DESIGN.md §11) mirrors sim::Runtime exactly:
///   * host ops are totally ordered on the host timeline;
///   * a device op happens-after everything the host had observed at its
///     submission (the stream joins the host clock at issue) and after
///     all earlier work on its own in-order stream;
///   * a blocking D2H copy drains the compute stream first (the host joins
///     the compute timeline BEFORE the access);
///   * RecordEvent snapshots join(stream, host); StreamWaitEvent joins the
///     waiting stream with the event; WaitEvent joins the host with the
///     event; Synchronize joins the host with every stream.
///
/// Detection is report-and-continue: the access book-keeping is updated
/// even for hazardous accesses so one missing edge yields one deduplicated
/// report per (kind, resource family, op pair) rather than a cascade.
/// The checker is passive — attaching it never changes the simulated
/// timeline — and deterministic: identical runs produce identical reports.

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "analysis/hazard_report.hpp"
#include "sim/runtime.hpp"

namespace dgnn::analysis {

/// Vector-clock happens-before checker; one instance per checked run.
class HazardChecker final : public sim::RuntimeObserver {
  public:
    /// Index of each logical timeline in the vector clocks.
    enum Timeline : int {
        kHost = 0,
        kCompute = 1,
        kCopy = 2,
        kTimelineCount = 3,
    };

    /// Snapshot of everything observed so far (callable mid-run; the
    /// checker keeps accumulating afterwards).
    HazardReport Report() const;

    /// --- sim::RuntimeObserver -------------------------------------------
    void OnOp(const sim::OpRecord& op) override;
    void OnEventRecorded(const sim::Event& event, sim::StreamId stream) override;
    void OnStreamWaitEvent(sim::StreamId stream, const sim::Event& event) override;
    void OnHostWaitEvent(const sim::Event& event) override;
    void OnSynchronize() override;

  private:
    using VectorClock = std::array<int64_t, kTimelineCount>;

    /// The last recorded access of one kind to one resource from one
    /// timeline: the epoch (clock value on that timeline) plus the site
    /// for reporting. clock == 0 means "none".
    struct AccessInfo {
        int64_t clock = 0;
        AccessSite site;
    };

    /// Per-resource detector state: the most recent write plus, per
    /// timeline, the most recent read (a read is ordered after all earlier
    /// same-timeline reads, so one epoch per timeline suffices).
    struct ResourceState {
        int write_timeline = -1;  ///< -1: no write yet
        AccessInfo write;
        std::array<AccessInfo, kTimelineCount> reads;
    };

    static int TimelineOf(const sim::OpRecord& op);
    static const char* TimelineName(int timeline);

    /// Merges @p from into @p into (component-wise max).
    static void Join(VectorClock& into, const VectorClock& from);

    /// Whether an access at @p epoch on @p timeline happened-before the
    /// current op (whose timeline clock is @p now).
    static bool HappensBefore(int timeline, int64_t epoch,
                              const VectorClock& now);

    void CheckRead(const std::string& resource, int timeline,
                   const AccessSite& site, const VectorClock& now);
    void CheckWrite(const std::string& resource, int timeline,
                    const AccessSite& site, const VectorClock& now);
    void RecordHazard(HazardKind kind, const std::string& resource,
                      const AccessSite& prior, int prior_timeline,
                      const AccessSite& current, int current_timeline);

    /// The event's happens-before snapshot, or null when the event was
    /// recorded before this checker attached.
    const VectorClock* EventClock(const sim::Event& event) const;

    VectorClock host_vc_{};
    /// Compute / copy stream clocks (index by Timeline - 1).
    std::array<VectorClock, 2> stream_vc_{};
    /// Event id -> happens-before snapshot at its record point.
    std::map<int64_t, VectorClock> event_vc_;
    /// Resource name -> detector state. Ordered so every walk (reporting,
    /// counting) is deterministic.
    std::map<std::string, ResourceState> resources_;
    /// Dedup key "(kind|family|prior op|current op)" -> index in hazards_.
    std::map<std::string, size_t> hazard_index_;
    std::vector<Hazard> hazards_;

    int64_t op_index_ = 0;
    int64_t reads_ = 0;
    int64_t writes_ = 0;
    int64_t events_recorded_ = 0;
    int64_t stream_waits_ = 0;
    int64_t host_waits_ = 0;
    int64_t synchronizes_ = 0;
};

/// The resource family of @p resource: the name with any ":<key>" and
/// "#<instance>" suffix removed, so every cache row is one family, "row"
/// (see sim::AccessSet).
std::string ResourceFamily(const std::string& resource);

}  // namespace dgnn::analysis
