#include "core/profiler.hpp"

#include "support/check.hpp"

namespace dgnn::core {

void
Profiler::Begin(const std::string& name)
{
    open_.push_back(OpenRange{name, runtime_.Now()});
}

void
Profiler::End()
{
    DGNN_CHECK(!open_.empty(), "Profiler::End without matching Begin");
    const OpenRange top = open_.back();
    open_.pop_back();
    ProfileRange r;
    r.name = top.name;
    r.start_us = top.start_us;
    r.end_us = runtime_.Now();
    r.depth = static_cast<int>(open_.size());
    ranges_.push_back(std::move(r));
}

std::map<std::string, sim::SimTime>
Profiler::RangeTotals() const
{
    std::map<std::string, sim::SimTime> totals;
    for (const ProfileRange& r : ranges_) {
        totals[r.name] += r.Duration();
    }
    return totals;
}

}  // namespace dgnn::core
