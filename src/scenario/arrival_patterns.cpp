#include "scenario/arrival_patterns.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "tensor/random.hpp"

namespace dgnn::scenario {

namespace {

bool
IsPositiveFinite(double v)
{
    return std::isfinite(v) && v > 0.0;
}

/// Thinning (Lewis & Shedler): candidates at the envelope rate
/// @p peak_qps, accepted with probability rate(t)/peak. Exact for any
/// rate(t) <= peak and deterministic in the Rng draw order.
template <typename RateFn>
std::vector<sim::SimTime>
ThinnedArrivals(double peak_qps, int64_t n, uint64_t seed, RateFn rate_qps_at)
{
    DGNN_CHECK(n >= 0, "request count must be non-negative, got ", n);
    const double peak_per_us = peak_qps / 1e6;
    Rng rng(seed);
    std::vector<sim::SimTime> arrivals;
    arrivals.reserve(static_cast<size_t>(n));
    sim::SimTime t = 0.0;
    while (static_cast<int64_t>(arrivals.size()) < n) {
        t += rng.Exponential(peak_per_us);
        const double accept = rate_qps_at(t) / peak_qps;
        if (static_cast<double>(rng.Uniform(0.0f, 1.0f)) <= accept) {
            arrivals.push_back(t);
        }
    }
    return arrivals;
}

}  // namespace

std::vector<sim::SimTime>
DiurnalArrivals(const DiurnalSpec& spec, int64_t n)
{
    DGNN_CHECK(IsPositiveFinite(spec.base_qps),
               "diurnal base rate must be positive and finite, got ",
               spec.base_qps);
    DGNN_CHECK(std::isfinite(spec.peak_ratio) && spec.peak_ratio >= 1.0,
               "diurnal peak ratio must be finite and >= 1, got ",
               spec.peak_ratio);
    DGNN_CHECK(IsPositiveFinite(spec.period_s),
               "diurnal period must be positive and finite, got ",
               spec.period_s);
    const double amp = (spec.peak_ratio - 1.0) / (spec.peak_ratio + 1.0);
    const double period_us = spec.period_s * 1e6;
    const double two_pi = 2.0 * std::acos(-1.0);
    return ThinnedArrivals(
        spec.base_qps * (1.0 + amp), n, spec.seed, [&](sim::SimTime t) {
            return spec.base_qps * (1.0 + amp * std::sin(two_pi * t / period_us));
        });
}

std::vector<sim::SimTime>
FlashCrowdArrivals(const FlashCrowdSpec& spec, int64_t n)
{
    DGNN_CHECK(IsPositiveFinite(spec.base_qps),
               "flash-crowd base rate must be positive and finite, got ",
               spec.base_qps);
    DGNN_CHECK(std::isfinite(spec.spike_factor) && spec.spike_factor >= 1.0,
               "flash-crowd spike factor must be finite and >= 1, got ",
               spec.spike_factor);
    DGNN_CHECK(std::isfinite(spec.spike_start_s),
               "flash-crowd spike start must be finite, got ",
               spec.spike_start_s);
    DGNN_CHECK(std::isfinite(spec.spike_duration_s) &&
                   spec.spike_duration_s >= 0.0,
               "flash-crowd spike duration must be finite and non-negative, "
               "got ", spec.spike_duration_s);
    const double start_us = spec.spike_start_s * 1e6;
    const double end_us = start_us + spec.spike_duration_s * 1e6;
    return ThinnedArrivals(spec.base_qps * spec.spike_factor, n, spec.seed,
                           [&](sim::SimTime t) {
                               const bool in_crowd = t >= start_us && t < end_us;
                               return in_crowd
                                          ? spec.base_qps * spec.spike_factor
                                          : spec.base_qps;
                           });
}

std::vector<sim::SimTime>
MmppArrivals(const MmppSpec& spec, int64_t n)
{
    DGNN_CHECK(IsPositiveFinite(spec.on_qps) && IsPositiveFinite(spec.off_qps),
               "MMPP phase rates must be positive and finite, got on ",
               spec.on_qps, ", off ", spec.off_qps);
    DGNN_CHECK(IsPositiveFinite(spec.mean_on_s) &&
                   IsPositiveFinite(spec.mean_off_s),
               "MMPP dwell times must be positive and finite, got on ",
               spec.mean_on_s, " s, off ", spec.mean_off_s, " s");
    DGNN_CHECK(n >= 0, "request count must be non-negative, got ", n);

    Rng rng(spec.seed);
    std::vector<sim::SimTime> arrivals;
    arrivals.reserve(static_cast<size_t>(n));
    bool on = true;
    sim::SimTime t = 0.0;
    sim::SimTime phase_end = rng.Exponential(1.0 / (spec.mean_on_s * 1e6));
    while (static_cast<int64_t>(arrivals.size()) < n) {
        const double rate_per_us = (on ? spec.on_qps : spec.off_qps) / 1e6;
        const double gap = rng.Exponential(rate_per_us);
        if (t + gap <= phase_end) {
            t += gap;
            arrivals.push_back(t);
            continue;
        }
        // The candidate lands past the phase boundary: move to the
        // boundary, flip phase, and redraw — exact by memorylessness of
        // the exponential.
        t = phase_end;
        on = !on;
        const double dwell_us = (on ? spec.mean_on_s : spec.mean_off_s) * 1e6;
        phase_end = t + rng.Exponential(1.0 / dwell_us);
    }
    return arrivals;
}

ArrivalStats
CharacterizeArrivals(const std::vector<sim::SimTime>& arrivals,
                     double window_us)
{
    ArrivalStats stats;
    const auto n = static_cast<int64_t>(arrivals.size());
    if (n < 2) {
        return stats;
    }
    DGNN_CHECK(window_us > 0.0, "rate window must be positive, got ",
               window_us);

    double sum = 0.0;
    double sum_sq = 0.0;
    for (int64_t i = 1; i < n; ++i) {
        const double gap = arrivals[static_cast<size_t>(i)] -
                           arrivals[static_cast<size_t>(i - 1)];
        sum += gap;
        sum_sq += gap * gap;
    }
    const double count = static_cast<double>(n - 1);
    const double mean = sum / count;
    const double var = std::max(0.0, sum_sq / count - mean * mean);
    stats.cv_gap = mean > 0.0 ? std::sqrt(var) / mean : 0.0;

    // Windowed rate: bucket arrivals into fixed windows over the span.
    const double span = arrivals.back() - arrivals.front();
    if (span <= 0.0) {
        return stats;
    }
    const auto num_windows =
        static_cast<int64_t>(std::ceil(span / window_us));
    std::vector<int64_t> counts(static_cast<size_t>(num_windows), 0);
    for (const sim::SimTime t : arrivals) {
        auto w = static_cast<int64_t>((t - arrivals.front()) / window_us);
        w = std::min(w, num_windows - 1);
        ++counts[static_cast<size_t>(w)];
    }
    int64_t peak = 0;
    for (const int64_t c : counts) {
        peak = std::max(peak, c);
    }
    const double mean_per_window =
        static_cast<double>(n) / static_cast<double>(num_windows);
    stats.peak_to_mean = static_cast<double>(peak) / mean_per_window;
    return stats;
}

}  // namespace dgnn::scenario
