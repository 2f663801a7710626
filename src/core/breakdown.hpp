#pragma once

/// @file
/// Per-module inference breakdown (the paper's Fig 7 rows): each category's
/// host time and its share of one iteration / the full run.

#include <string>
#include <vector>

#include "sim/runtime.hpp"

namespace dgnn::core {

/// One row of a breakdown: module name, time, share.
struct BreakdownEntry {
    std::string category;
    sim::SimTime time_us = 0.0;
    double share_pct = 0.0;
};

/// A complete breakdown of one measured run.
class Breakdown {
  public:
    /// Builds the breakdown from the runtime's category accounting over the
    /// current measurement window, one entry per category.
    static Breakdown FromRuntime(const sim::Runtime& runtime);

    const std::vector<BreakdownEntry>& Entries() const { return entries_; }

    /// Total time across all entries (== elapsed window time).
    sim::SimTime TotalUs() const { return total_us_; }

    /// Share of @p category in percent (0 when absent).
    double SharePct(const std::string& category) const;

    /// Time of @p category (0 when absent).
    sim::SimTime TimeUs(const std::string& category) const;

    /// Ordered category names, largest share first.
    std::vector<std::string> Categories() const;

  private:
    std::vector<BreakdownEntry> entries_;
    sim::SimTime total_us_ = 0.0;
};

}  // namespace dgnn::core
