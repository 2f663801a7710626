#include "core/breakdown.hpp"

#include <algorithm>

namespace dgnn::core {

Breakdown
Breakdown::FromRuntime(const sim::Runtime& runtime)
{
    Breakdown b;
    for (const auto& [category, time_us] : runtime.CategoryTimes()) {
        b.total_us_ += time_us;
    }
    for (const auto& [category, time_us] : runtime.CategoryTimes()) {
        const double share =
            b.total_us_ > 0.0 ? 100.0 * time_us / b.total_us_ : 0.0;
        b.entries_.push_back(BreakdownEntry{category, time_us, share});
    }
    std::sort(b.entries_.begin(), b.entries_.end(),
              [](const BreakdownEntry& x, const BreakdownEntry& y) {
                  return x.time_us > y.time_us;
              });
    return b;
}

double
Breakdown::SharePct(const std::string& category) const
{
    for (const BreakdownEntry& e : entries_) {
        if (e.category == category) {
            return e.share_pct;
        }
    }
    return 0.0;
}

sim::SimTime
Breakdown::TimeUs(const std::string& category) const
{
    for (const BreakdownEntry& e : entries_) {
        if (e.category == category) {
            return e.time_us;
        }
    }
    return 0.0;
}

std::vector<std::string>
Breakdown::Categories() const
{
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const BreakdownEntry& e : entries_) {
        names.push_back(e.category);
    }
    return names;
}

}  // namespace dgnn::core
