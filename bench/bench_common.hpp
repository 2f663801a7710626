#pragma once

/// @file
/// Shared plumbing for the bench harnesses: the interaction-stream
/// factories, run helpers, and printing conventions.

#include <cstdio>
#include <iostream>
#include <string>

#include "core/table_writer.hpp"
#include "data/temporal_interactions.hpp"
#include "models/dgnn_model.hpp"
#include "models/tgn.hpp"

namespace dgnn::bench {

/// Events per interaction stream at bench scale (keeps sweeps fast while
/// large enough that per-batch effects dominate noise).
constexpr int64_t kStreamEvents = 16384;

/// Numeric cap for bench sweeps (cost accounting always covers the full
/// batch; see models/dgnn_model.hpp header).
constexpr int64_t kBenchNumericCap = 4;

inline data::InteractionDataset
WikipediaDataset()
{
    return data::GenerateInteractions(data::InteractionSpec::WikipediaLike(kStreamEvents));
}

inline data::InteractionDataset
RedditDataset()
{
    return data::GenerateInteractions(data::InteractionSpec::RedditLike(kStreamEvents));
}

inline data::InteractionDataset
LastFmDataset()
{
    return data::GenerateInteractions(data::InteractionSpec::LastFmLike(kStreamEvents));
}

/// The recurrent repeat-talker stream the serving benches share (gauntlet,
/// shard scaling, fusion + dispatch), so their cells are comparable across
/// benches.
inline data::InteractionSpec
GauntletSpec()
{
    data::InteractionSpec spec;
    spec.name = "gauntlet";
    spec.num_users = 512;
    spec.num_items = 128;
    spec.num_events = 4096;
    spec.edge_feature_dim = 64;
    spec.popularity_alpha = 2.5;
    spec.repeat_prob = 0.9;
    spec.seed = 31;
    return spec;
}

/// The TGN every serving bench runs.
inline constexpr models::TgnConfig kServingTgn{172, 64, 2, 11};

/// Standard bench run configuration.
inline models::RunConfig
BenchRun(sim::ExecMode mode, int64_t batch_size, int64_t neighbors = 20,
         int64_t max_events = 0)
{
    models::RunConfig run;
    run.mode = mode;
    run.batch_size = batch_size;
    run.num_neighbors = neighbors;
    run.max_events = max_events;
    run.numeric_cap = kBenchNumericCap;
    return run;
}

/// Prints a section banner matching across benches.
inline void
Banner(const std::string& title, const std::string& paper_ref)
{
    std::cout << "\n================================================================\n"
              << title << "\n(reproduces " << paper_ref << ")\n"
              << "================================================================\n";
}

/// ms with 2 decimals.
inline std::string
Ms(sim::SimTime us)
{
    return core::TableWriter::Num(us / 1000.0, 2);
}

/// A fraction as a percentage with 1 decimal ("12.5%").
inline std::string
Pct(double fraction)
{
    return core::TableWriter::Num(100.0 * fraction, 1) + "%";
}

/// Megabytes with 1 decimal.
inline std::string
Mb(int64_t bytes)
{
    return core::TableWriter::Num(static_cast<double>(bytes) / 1024.0 / 1024.0, 1);
}

}  // namespace dgnn::bench
