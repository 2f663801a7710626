#include <algorithm>
#include <iostream>
#include <sstream>
#include <utility>

#include "bench.hpp"
#include "core/bench_json_writer.hpp"

namespace dgnn::benchmark {
namespace {

/// Keeps the calibration loop's result alive.
volatile double calibration_sink = 0.0;

}  // namespace

const Metric*
MetricSet::Find(const std::string& name) const
{
    for (const Metric& m : metrics_) {
        if (m.name == name) {
            return &m;
        }
    }
    return nullptr;
}

void
RepResult::Check(bool ok, int64_t weight, const std::string& what)
{
    if (!ok) {
        failed += weight;
        std::cerr << "check failed: " << what << "\n";
    }
}

double
Quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double
CalibrationCpuSeconds()
{
    constexpr uint64_t kTableWords = uint64_t{1} << 21;
    constexpr int kSteps = 1500000;
    // Constructed (and so paged in) before the first timing starts.
    static std::vector<uint64_t> table(kTableWords, 1);

    const Stopwatch clock;
    uint64_t x = 88172645463325252ULL;
    uint64_t acc = 0;
    double chain = 1.0;
    for (int i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t& slot = table[x & (kTableWords - 1)];
        acc += slot;
        slot = acc ^ x;
        chain = chain * 1.0000001 + static_cast<double>(acc & 1023) * 1e-9;
    }
    calibration_sink = chain + static_cast<double>(acc);
    return clock.CpuSeconds();
}

void
CalibratedClock::Lap()
{
    const double segment_s = segment_.CpuSeconds();
    const double calibration_s = CalibrationCpuSeconds();
    total_s_ += segment_s * 2.0 * kReferenceCalibrationS /
                (calibration_s_ + calibration_s);
    calibration_s_ = calibration_s;
    segment_ = Stopwatch();
}

double
CalibratedClock::Take()
{
    const double total_s = total_s_;
    total_s_ = 0.0;
    return total_s;
}

HostTrace::HostTrace() : origin_(std::chrono::steady_clock::now()) {}

int
HostTrace::Begin(std::string layer, std::string name)
{
    Span span;
    span.layer = std::move(layer);
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - origin_)
                       .count();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
HostTrace::End(int id)
{
    spans_[static_cast<size_t>(id)].end_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      origin_)
            .count();
    open_.pop_back();
}

double
HostTrace::LayerSeconds(const std::string& layer) const
{
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.layer != layer) {
            continue;
        }
        bool nested_in_layer = false;
        for (int p = span.parent; p >= 0 && !nested_in_layer;
             p = spans_[static_cast<size_t>(p)].parent) {
            nested_in_layer = spans_[static_cast<size_t>(p)].layer == layer;
        }
        if (!nested_in_layer) {
            total += span.end_s - span.start_s;
        }
    }
    return total;
}

double
HostTrace::SpanSeconds(const std::string& name) const
{
    double total = 0.0;
    for (const Span& span : spans_) {
        if (span.name == name) {
            total += span.end_s - span.start_s;
        }
    }
    return total;
}

std::map<std::string, double>
HostTrace::SelfSeconds() const
{
    std::map<std::string, double> self;
    for (const Span& span : spans_) {
        self[span.layer] += span.end_s - span.start_s;
        if (span.parent >= 0) {
            self[spans_[static_cast<size_t>(span.parent)].layer] -=
                span.end_s - span.start_s;
        }
    }
    return self;
}

std::string
HostTrace::ToJson() const
{
    std::ostringstream out;
    out.precision(17);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i == 0 ? "" : ",") << "\n{\"name\":\""
            << core::JsonEscape(s.name) << "\",\"cat\":\""
            << core::JsonEscape(s.layer)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
            << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n],\"self_s\":{";
    bool first = true;
    for (const auto& [layer, seconds] : SelfSeconds()) {
        out << (first ? "" : ",") << "\"" << core::JsonEscape(layer)
            << "\":" << seconds;
        first = false;
    }
    out << "}}\n";
    return out.str();
}

Scope::Scope(HostTrace* trace, const char* layer, std::string name)
    : trace_(trace)
{
    if (trace_ != nullptr) {
        id_ = trace_->Begin(layer, std::move(name));
    }
}

Scope::~Scope()
{
    if (trace_ != nullptr) {
        trace_->End(id_);
    }
}

const std::vector<std::string>&
OfflineModelIds()
{
    static const std::vector<std::string> ids = {
        "tgat", "tgn", "jodie", "dyrep", "ldg", "evolvegcn_o", "astgnn",
        "moldgnn"};
    return ids;
}

const std::vector<std::pair<std::string, std::string>>&
LayerMetricNames()
{
    static const std::vector<std::pair<std::string, std::string>> names = [] {
        std::vector<std::pair<std::string, std::string>> n = {
            {"data.gen_s", "s"},
            {"scenario.gen_s", "s"},
            {"models.capture_s", "s"},
            {"models.captured_profiles", "count"},
            {"models.kernels_per_batch", "count"},
            {"models.fused_kernels_per_batch", "count"},
        };
        for (const std::string& m : OfflineModelIds()) {
            n.emplace_back("models." + m + ".gpu_ms", "ms");
            n.emplace_back("models." + m + ".cpu_ms", "ms");
            n.emplace_back("models." + m + ".host_s", "s");
        }
        n.insert(n.end(), {{"sim.h2d_mb", "MB"},
                           {"sim.d2h_mb", "MB"},
                           {"sim.launches", "count"}});
        for (const std::string& m : OfflineModelIds()) {
            n.emplace_back("sim." + m + ".h2d_mb", "MB");
            n.emplace_back("sim." + m + ".transfer_ms", "ms");
            n.emplace_back("sim." + m + ".gpu_util_pct", "%");
        }
        n.insert(n.end(), {
            {"cache.hit_rate", "ratio"},
            {"cache.evictions", "count"},
            {"cache.writeback_rows", "count"},
            {"cache.saved_mb", "MB"},
            {"serve.batches", "count"},
            {"serve.batch_size_mean", "count"},
            {"serve.queue_depth_mean", "count"},
            {"serve.span.queue_us", "us"},
            {"serve.span.stall_us", "us"},
            {"serve.span.host_us", "us"},
            {"serve.span.h2d_us", "us"},
            {"serve.span.compute_us", "us"},
            {"serve.span.d2h_us", "us"},
            {"serve.host_s", "s"},
            {"dispatch.cpu_batches.light", "count"},
            {"dispatch.gpu_batches.light", "count"},
            {"dispatch.fused_batches.light", "count"},
            {"dispatch.cpu_batches.heavy", "count"},
            {"dispatch.gpu_batches.heavy", "count"},
            {"dispatch.fused_batches.heavy", "count"},
            {"dispatch.mean_rel_error", "ratio"},
            {"shard.edge_cut", "count"},
            {"shard.balance_factor", "ratio"},
            {"shard.remote_rows", "count"},
            {"shard.exchange_mb", "MB"},
            {"shard.comm_tax_pct", "%"},
            {"shard.slowest_makespan_ms", "ms"},
            {"obs.attr.queueing_pct", "%"},
            {"obs.attr.host_pct", "%"},
            {"obs.attr.transfer_pct", "%"},
            {"obs.attr.compute_pct", "%"},
            {"obs.attr.cross_shard_pct", "%"},
            {"analysis.hazards", "count"},
        });
        return n;
    }();
    return names;
}

}  // namespace dgnn::benchmark
