#pragma once

// The tiny datasets and the small full-numerics run config that the model
// tests and the work audit (audit_test.cpp) share.

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

}  // namespace dgnn::models
