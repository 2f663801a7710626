#include "analysis/hazard_report.hpp"

#include <cstdio>

namespace dgnn::analysis {

namespace {

std::string FormatUs(sim::SimTime us)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2fus", us);
    return std::string(buf);
}

void AppendCounter(std::string& out, const char* label, int64_t value)
{
    constexpr int kPad = 18;
    out += "  ";
    out += label;
    out += ' ';
    for (int i = static_cast<int>(std::string(label).size()); i < kPad; ++i) {
        out += '.';
    }
    out += ' ';
    out += std::to_string(value);
    out += '\n';
}

}  // namespace

const char* ToString(HazardKind kind)
{
    switch (kind) {
        case HazardKind::kRaw: return "RAW";
        case HazardKind::kWar: return "WAR";
        case HazardKind::kWaw: return "WAW";
    }
    return "?";
}

std::string AccessSite::ToString() const
{
    std::string out = "op#" + std::to_string(op_index);
    out += ' ';
    out += op_name;
    out += " [";
    out += timeline;
    out += "] @ ";
    out += FormatUs(time_us);
    return out;
}

int64_t HazardReport::HazardOccurrences() const
{
    int64_t total = 0;
    for (const Hazard& hazard : hazards) {
        total += hazard.occurrences;
    }
    return total;
}

std::string HazardReport::ToText() const
{
    std::string out = "hazard report\n";
    AppendCounter(out, "ops", ops);
    AppendCounter(out, "reads", reads);
    AppendCounter(out, "writes", writes);
    AppendCounter(out, "resources", resources);
    AppendCounter(out, "events recorded", events_recorded);
    AppendCounter(out, "stream waits", stream_waits);
    AppendCounter(out, "host waits", host_waits);
    AppendCounter(out, "synchronizes", synchronizes);
    out += "  hazards ........... ";
    out += std::to_string(static_cast<int64_t>(hazards.size()));
    out += " (";
    out += std::to_string(HazardOccurrences());
    out += " occurrences)\n";
    out += "  verdict ........... ";
    out += Verdict();
    out += '\n';
    for (size_t i = 0; i < hazards.size(); ++i) {
        const Hazard& hazard = hazards[i];
        out += "[";
        out += std::to_string(static_cast<int64_t>(i) + 1);
        out += "] ";
        out += analysis::ToString(hazard.kind);
        out += " on ";
        out += hazard.resource;
        out += " (x";
        out += std::to_string(hazard.occurrences);
        out += ")\n";
        out += "    prior:   " + hazard.prior.ToString() + "\n";
        out += "    current: " + hazard.current.ToString() + "\n";
        out += "    fix:     " + hazard.missing_edge + "\n";
    }
    return out;
}

void HazardReport::AppendJsonFields(core::BenchJsonWriter& json) const
{
    json.Field("ops", ops);
    json.Field("reads", reads);
    json.Field("writes", writes);
    json.Field("resources", resources);
    json.Field("events_recorded", events_recorded);
    json.Field("stream_waits", stream_waits);
    json.Field("host_waits", host_waits);
    json.Field("synchronizes", synchronizes);
    json.Field("hazards", static_cast<int64_t>(hazards.size()));
    json.Field("hazard_occurrences", HazardOccurrences());
    json.Field("verdict", Verdict());
}

}  // namespace dgnn::analysis
