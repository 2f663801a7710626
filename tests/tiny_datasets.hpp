#pragma once

// The tiny datasets and the small full-numerics run config that the model
// tests and the work audit (audit_test.cpp) share, and the every-field
// rendering of a RunResult the model and cache tests compare runs by.

#include <array>
#include <cstdio>
#include <sstream>
#include <string>

#include "data/molecular_gen.hpp"
#include "data/snapshot_seq_gen.hpp"
#include "data/social_evolution_gen.hpp"
#include "data/temporal_interactions.hpp"
#include "data/traffic_gen.hpp"
#include "models/dgnn_model.hpp"

namespace dgnn::models {

inline data::InteractionDataset
TinyInteractions()
{
    data::InteractionSpec spec;
    spec.name = "tiny";
    spec.num_users = 20;
    spec.num_items = 12;
    spec.num_events = 120;
    spec.edge_feature_dim = 8;
    spec.seed = 5;
    return data::GenerateInteractions(spec);
}

inline data::SnapshotDataset
TinySnapshots()
{
    data::SnapshotSpec spec;
    spec.name = "tiny";
    spec.num_nodes = 40;
    spec.num_steps = 4;
    spec.edges_per_step = 150;
    spec.node_feature_dim = 8;
    spec.seed = 6;
    return data::GenerateSnapshots(spec);
}

inline data::MolecularDataset
TinyMolecular()
{
    data::MolecularSpec spec;
    spec.num_frames = 24;
    spec.seed = 7;
    return data::GenerateMolecular(spec);
}

inline data::TrafficDataset
TinyTraffic()
{
    data::TrafficSpec spec;
    spec.num_sensors = 16;
    spec.num_timesteps = 48;
    spec.seed = 8;
    return data::GenerateTraffic(spec);
}

inline data::PointProcessDataset
TinyPointProcess()
{
    data::PointProcessSpec spec;
    spec.num_actors = 15;
    spec.num_events = 60;
    spec.seed = 9;
    return data::GeneratePointProcess(spec);
}

inline RunConfig
SmallRun(sim::ExecMode mode)
{
    RunConfig run;
    run.mode = mode;
    run.batch_size = 16;
    run.num_neighbors = 4;
    run.numeric_cap = 0;  // full numerics
    return run;
}

/// Hex-float rendering, so a mismatch prints the exact literal.
inline std::string
HexFloat(double value)
{
    std::array<char, 64> buf{};
    std::snprintf(buf.data(), buf.size(), "%a", value);
    return buf.data();
}

/// Every field of a run: hex-floats for times and shares, exact integers
/// for bytes and counts, one Breakdown entry per line.
inline std::string
RenderRun(const RunResult& r)
{
    std::ostringstream out;
    out << r.model << " " << r.dataset << " " << r.mode << "\n"
        << "window " << HexFloat(r.total_us) << " per_iteration "
        << HexFloat(r.per_iteration_us) << " iterations " << r.iterations << "\n"
        << "compute util_pct " << HexFloat(r.compute_utilization_pct) << " busy_us "
        << HexFloat(r.compute_busy_us) << "\n"
        << "peak_bytes compute " << r.compute_peak_bytes << " cpu "
        << r.cpu_peak_bytes << "\n"
        << "transfer h2d " << r.h2d_bytes << " d2h " << r.d2h_bytes << " count "
        << r.transfer_count << " time_us " << HexFloat(r.transfer_time_us) << "\n"
        << "warmup one_time " << HexFloat(r.warmup_one_time_us) << " per_run "
        << HexFloat(r.warmup_per_run_us) << "\n"
        << "checksum " << HexFloat(r.output_checksum) << "\n"
        << "breakdown " << HexFloat(r.breakdown.TotalUs()) << "\n";
    for (const core::BreakdownEntry& e : r.breakdown.Entries()) {
        out << "  " << e.category << " " << HexFloat(e.time_us) << " "
            << HexFloat(e.share_pct) << "\n";
    }
    const cache::CacheStats& c = r.cache_stats;
    out << "cache lookups " << c.lookups << " hits " << c.hits << " misses "
        << c.misses << " insertions " << c.insertions << " evictions "
        << c.evictions << "\n"
        << "cache writeback_rows " << c.writeback_rows << " hit_bytes "
        << c.hit_bytes << " miss_bytes " << c.miss_bytes << " runtime_hit_bytes "
        << r.cache_hit_bytes << "\n";
    return out.str();
}

}  // namespace dgnn::models
