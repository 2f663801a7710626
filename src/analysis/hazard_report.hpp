#pragma once

/// @file
/// Hazard-report types for the happens-before checker (hazard_checker.hpp):
/// the hazard classification (RAW/WAR/WAW), the two access sites of each
/// conflict, the suggested missing synchronization edge, and a deterministic
/// text / JSON rendering of the whole report. The report is the artifact the
/// `hazard` CTest label and the TSan CI job gate on: a clean run renders a
/// stable summary block, a dirty run lists every deduplicated hazard with
/// enough context to place the missing edge.

#include <cstdint>
#include <string>
#include <vector>

#include "core/bench_json_writer.hpp"
#include "sim/sim_time.hpp"

namespace dgnn::analysis {

/// Classification of a conflicting, unordered access pair. Named from the
/// perspective of the SECOND (current) access: a RAW hazard is a read that
/// may run before the write it depends on has landed.
enum class HazardKind {
    kRaw,  ///< read-after-write unordered: the read may see stale data
    kWar,  ///< write-after-read unordered: the write may clobber a reader
    kWaw,  ///< write-after-write unordered: the final value is a coin toss
};

const char* ToString(HazardKind kind);

/// One side of a conflict: which operation touched the resource, where it
/// executed, and when.
struct AccessSite {
    int64_t op_index = 0;      ///< issue-order index within the run
    std::string op_name;       ///< kernel / copy / host-op label
    std::string timeline;      ///< "host" | "compute" | "copy"
    sim::SimTime time_us = 0.0;  ///< completion time of the access

    std::string ToString() const;
};

/// One detected hazard: the resource, both sites, and the synchronization
/// edge whose absence made the pair unordered. Repeats of the same shape
/// (same kind, resource family, op pair) are deduplicated into
/// `occurrences`.
struct Hazard {
    HazardKind kind = HazardKind::kRaw;
    std::string resource;
    AccessSite prior;
    AccessSite current;
    /// Human-readable suggestion, e.g. "missing StreamWaitEvent(compute,
    /// <event on copy>) between the sites".
    std::string missing_edge;
    int64_t occurrences = 1;
};

/// Everything one checked run produced. Counters describe the concurrency
/// structure the checker saw (they are part of the golden clean-run
/// reports: a sync edge silently disappearing shows up as a counter drift
/// even while the run stays hazard-free).
struct HazardReport {
    int64_t ops = 0;              ///< operations observed
    int64_t reads = 0;            ///< declared read accesses checked
    int64_t writes = 0;           ///< declared write accesses checked
    int64_t resources = 0;        ///< distinct resources touched
    int64_t events_recorded = 0;  ///< RecordEvent count
    int64_t stream_waits = 0;     ///< StreamWaitEvent count
    int64_t host_waits = 0;       ///< WaitEvent count
    int64_t synchronizes = 0;     ///< Synchronize count
    std::vector<Hazard> hazards;  ///< deduplicated, in detection order

    bool Clean() const { return hazards.empty(); }

    /// "CLEAN" or "HAZARDOUS".
    const char* Verdict() const { return Clean() ? "CLEAN" : "HAZARDOUS"; }

    /// Total conflict occurrences across all deduplicated hazards.
    int64_t HazardOccurrences() const;

    /// Deterministic multi-line rendering: a summary block plus one
    /// paragraph per hazard.
    std::string ToText() const;

    /// Appends the summary counters, the hazard count and the verdict to
    /// @p json's open record (after the caller's own fields). Hazard
    /// details stay in the text rendering; the JSON fields are the
    /// machine-readable gate.
    void AppendJsonFields(core::BenchJsonWriter& json) const;
};

}  // namespace dgnn::analysis
