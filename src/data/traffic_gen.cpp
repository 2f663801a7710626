#include "data/traffic_gen.hpp"

#include <cmath>
#include <vector>

#include "support/check.hpp"
#include "tensor/random.hpp"

namespace dgnn::data {

TrafficSpec
TrafficSpec::PemsLike()
{
    return TrafficSpec{};
}

Tensor
TrafficDataset::Window(int64_t t, int64_t len) const
{
    DGNN_CHECK(t >= 0 && t + len <= spec.num_timesteps, "window [", t, ", ", t + len,
               ") out of range for ", spec.num_timesteps, " timesteps");
    return signal.RowSlice(t, t + len);
}

int64_t
TrafficDataset::NumSamples() const
{
    return std::max<int64_t>(
        0, spec.num_timesteps - spec.history_len - spec.horizon + 1);
}

TrafficDataset
GenerateTraffic(const TrafficSpec& spec)
{
    DGNN_CHECK(spec.num_sensors > 0 && spec.num_timesteps > 0, "dataset '", spec.name,
               "' needs positive sizes");
    Rng rng(spec.seed);

    // Road graph: a ring of sensors with random chords, mimicking a highway
    // corridor with interchanges.
    std::vector<graph::Edge> edges;
    for (int64_t i = 0; i < spec.num_sensors; ++i) {
        const int64_t next = (i + 1) % spec.num_sensors;
        edges.push_back({i, next, 1.0f});
        edges.push_back({next, i, 1.0f});
        for (int64_t extra = 2; extra < spec.avg_degree; ++extra) {
            const int64_t j = rng.UniformInt(0, spec.num_sensors - 1);
            if (j != i) {
                edges.push_back({i, j, 0.5f});
            }
        }
    }
    graph::GraphSnapshot road(spec.num_sensors, edges);

    // Signal: daily sinusoid + two rush-hour bumps + sensor-specific phase +
    // smooth noise, spatially correlated along the ring.
    const int64_t width = spec.num_sensors * spec.channels;
    Tensor signal(Shape({spec.num_timesteps, width}));
    std::vector<float> sensor_phase(static_cast<size_t>(spec.num_sensors));
    for (auto& p : sensor_phase) {
        p = rng.Uniform(0.0f, 0.5f);
    }
    for (int64_t t = 0; t < spec.num_timesteps; ++t) {
        const double day = static_cast<double>(t) /
                           static_cast<double>(spec.num_timesteps);
        const double rush1 = 0.4 * std::exp(-std::pow((day - 0.33) * 12.0, 2.0));
        const double rush2 = 0.5 * std::exp(-std::pow((day - 0.71) * 12.0, 2.0));
        for (int64_t s = 0; s < spec.num_sensors; ++s) {
            const double phase = sensor_phase[static_cast<size_t>(s)];
            const double base = 0.5 + 0.3 * std::sin(2.0 * M_PI * (day + phase));
            for (int64_t c = 0; c < spec.channels; ++c) {
                const double v = base + rush1 + rush2 +
                                 0.05 * rng.Normal(0.0f, 1.0f) +
                                 0.1 * static_cast<double>(c);
                signal.At(t, s * spec.channels + c) = static_cast<float>(v);
            }
        }
    }

    return TrafficDataset{spec, std::move(road), std::move(signal)};
}

}  // namespace dgnn::data
