#pragma once

/// @file
/// Module-level profiler over the simulated runtime — the analogue of the
/// PyTorch Profiler used by the paper. A ProfileScope both (a) pushes a
/// category onto the runtime so all issued work is attributed to the module,
/// and (b) records a named host-time range for phase timelines (Fig 9).

#include <map>
#include <string>
#include <vector>

#include "sim/runtime.hpp"
#include "sim/sim_time.hpp"

namespace dgnn::core {

/// One recorded profiling range on the host timeline.
struct ProfileRange {
    std::string name;
    sim::SimTime start_us = 0.0;
    sim::SimTime end_us = 0.0;
    int depth = 0;

    sim::SimTime Duration() const { return end_us - start_us; }
};

/// Collects nested, named host-time ranges for one run.
class Profiler {
  public:
    explicit Profiler(sim::Runtime& runtime) : runtime_(runtime) {}

    sim::Runtime& GetRuntime() { return runtime_; }

    /// Opens a range; pair with End(). Prefer ProfileScope.
    void Begin(const std::string& name);

    /// Closes the innermost open range.
    void End();

    /// All completed ranges in completion order.
    const std::vector<ProfileRange>& Ranges() const { return ranges_; }

    /// Total host time per range name, summed over occurrences.
    std::map<std::string, sim::SimTime> RangeTotals() const;

    /// Number of currently open ranges.
    int OpenDepth() const { return static_cast<int>(open_.size()); }

  private:
    struct OpenRange {
        std::string name;
        sim::SimTime start_us;
    };

    sim::Runtime& runtime_;
    std::vector<OpenRange> open_;
    std::vector<ProfileRange> ranges_;
};

/// RAII range + category scope.
class ProfileScope {
  public:
    ProfileScope(Profiler& profiler, const std::string& name)
        : profiler_(profiler), category_(profiler.GetRuntime(), name)
    {
        profiler_.Begin(name);
    }
    ~ProfileScope() { profiler_.End(); }

    ProfileScope(const ProfileScope&) = delete;
    ProfileScope& operator=(const ProfileScope&) = delete;

  private:
    Profiler& profiler_;
    sim::CategoryScope category_;
};

}  // namespace dgnn::core
