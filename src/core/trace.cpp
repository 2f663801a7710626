#include "core/trace_analysis.hpp"

#include <algorithm>
#include <sstream>

#include "core/bench_json_writer.hpp"
#include "support/check.hpp"

namespace dgnn::core {

namespace {

/// Overlap of [a0, a1) with [b0, b1).
sim::SimTime
Overlap(sim::SimTime a0, sim::SimTime a1, sim::SimTime b0, sim::SimTime b1)
{
    return std::max(0.0, std::min(a1, b1) - std::max(a0, b0));
}

}  // namespace

std::vector<UtilizationSample>
UtilizationTimeline(const sim::Trace& trace, const std::string& device, sim::SimTime t0,
                    sim::SimTime t1, sim::SimTime bin_us, bool occupancy_weighted)
{
    DGNN_CHECK(bin_us > 0.0, "bin width must be positive, got ", bin_us);
    DGNN_CHECK(t1 >= t0, "bad window [", t0, ", ", t1, ")");
    const int64_t bins = static_cast<int64_t>((t1 - t0) / bin_us) + 1;
    std::vector<UtilizationSample> samples(static_cast<size_t>(bins));
    for (int64_t b = 0; b < bins; ++b) {
        samples[static_cast<size_t>(b)].t_us = t0 + static_cast<double>(b) * bin_us;
    }
    for (const sim::TraceEvent& e : trace.Events()) {
        if (e.kind != sim::EventKind::kKernel || e.device != device) {
            continue;
        }
        const int64_t first =
            std::max<int64_t>(0, static_cast<int64_t>((e.start_us - t0) / bin_us));
        const int64_t last =
            std::min<int64_t>(bins - 1, static_cast<int64_t>((e.end_us - t0) / bin_us));
        for (int64_t b = first; b <= last; ++b) {
            const sim::SimTime bin_start = t0 + static_cast<double>(b) * bin_us;
            const sim::SimTime ov =
                Overlap(e.start_us, e.end_us, bin_start, bin_start + bin_us);
            const double weight = occupancy_weighted ? e.occupancy : 1.0;
            samples[static_cast<size_t>(b)].utilization_pct +=
                100.0 * weight * ov / bin_us;
        }
    }
    for (UtilizationSample& s : samples) {
        s.utilization_pct = std::min(s.utilization_pct, 100.0);
    }
    return samples;
}

int64_t
TransferredBytes(const sim::Trace& trace, sim::CopyDirection direction, sim::SimTime t0,
                 sim::SimTime t1)
{
    int64_t bytes = 0;
    for (const sim::TraceEvent& e : trace.Events()) {
        if (e.kind == sim::EventKind::kTransfer && e.direction == direction &&
            e.start_us >= t0 && e.start_us < t1) {
            bytes += e.bytes;
        }
    }
    return bytes;
}

std::string
ToChromeTraceJson(const sim::Trace& trace)
{
    std::ostringstream oss;
    oss << "{\"traceEvents\":[";
    bool first = true;
    for (const sim::TraceEvent& e : trace.Events()) {
        if (!first) {
            oss << ",";
        }
        first = false;
        // Every interpolated string goes through JsonEscape: kernel names
        // carry user-controlled labels ("what" strings, model names) that
        // may contain quotes, backslashes, or control characters.
        oss << "{\"name\":\"" << JsonEscape(e.name) << "\",\"cat\":\""
            << JsonEscape(e.category) << "\",\"ph\":\"X\",\"ts\":" << e.start_us
            << ",\"dur\":" << (e.end_us - e.start_us) << ",\"pid\":1,\"tid\":\""
            << JsonEscape(e.device) << "\",\"args\":{\"kind\":\""
            << JsonEscape(sim::ToString(e.kind))
            << "\",\"occupancy\":" << e.occupancy << ",\"flops\":" << e.flops
            << ",\"bytes\":" << e.bytes << "}}";
    }
    oss << "]}";
    return oss.str();
}

}  // namespace dgnn::core
