#pragma once

/// @file
/// Registered fusion plans for the hot per-model kernel chains, and the one
/// pass that applies them. Fusion is a pass over a captured kernel list:
/// FuseRegisteredChains applies a model's plans in catalog order, each
/// collapsing its chain into one launch wherever the chain's parts appear
/// consecutively, by name; a later plan sees the earlier plans' launches.
/// Models launch only their unfused kernels and their numerics never see
/// fusion; a fused profile is derived from the one recorded batch
/// (serve::ProfileTable::FusedProfile).
///
/// The chains (see DESIGN.md §13 for the cost derivations), each with the
/// bytes its part boundaries keep on-chip:
///
///   TGN    tgn_memory_fused      aggregate_last + gru_memory_update
///                                {agg.parallel_items·4}
///          tgn_embed_fused       temporal_attention + edge_decoder
///                                {decoder.parallel_items·2·memory row bytes}
///   TGAT   tgat_encode_fused     time_encoding + feature_projection  {0}
///          tgat_attention_fused  attention + merge_ffn  (per layer)
///                                {merge.parallel_items·4}
///   JODIE  jodie_tbatch_fused    project_user + predict_item + 2x rnn_update
///                                {proj.parallel_items·4, 0, 0}
///                                (per t-batch: 4 launches -> 1)
///          jodie_tbatch_run      n >= 2 consecutive jodie_tbatch_fused
///                                {0, ...}  (a kRun: the batch's n
///                                t-batches, n launches -> 1; no state row
///                                stays on-chip between steps, but the
///                                steps' shared RNN and predictor weights
///                                do when they fit sim::kOnChipWeightBudget)

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "models/dgnn_model.hpp"
#include "sim/fusion.hpp"

namespace dgnn::models {

/// One registered fusion opportunity: a named chain of kernels in one model.
struct FusionPlan {
    /// Model the chain belongs to (DgnnModel::Name(): "TGN", "TGAT",
    /// "JODIE").
    std::string model;

    /// Collapsed launch name, e.g. "tgn_memory_fused".
    std::string chain;

    /// Unfused kernel names, in execution order. JODIE's recurrent cells
    /// repeat a part name; the plan lists each repetition explicitly.
    std::vector<std::string> parts;

    /// The bytes each part boundary keeps on-chip (parts.size() - 1
    /// entries), from the matched @p parts and the model's state row width
    /// (DgnnModel::CacheRowBytes()).
    std::vector<int64_t> (*boundary_bytes)(std::span<const sim::KernelDesc> parts,
                                           int64_t row_bytes);

    /// kChain matches @p parts exactly. kRun has one part and matches every
    /// run of 2 or more consecutive launches of it (sim::FusedShape).
    sim::FusedShape shape = sim::FusedShape::kChain;
};

/// The full registry, fixed order (TGN, TGAT, JODIE); the order in which
/// FuseRegisteredChains applies a model's plans.
[[nodiscard]] const std::vector<FusionPlan>& FusionCatalog();

/// Lookup by chain name; nullptr when not registered.
[[nodiscard]] const FusionPlan* FindFusionPlan(const std::string& chain);

/// @p kernels, a list @p model launched, with each of the model's
/// registered chains collapsed (sim::Collapse) wherever its parts appear
/// consecutively, plan by plan in catalog order; every other kernel is kept
/// as it is, in order. Another model's chains and partial chains are left
/// alone.
[[nodiscard]] std::vector<sim::KernelDesc> FuseRegisteredChains(
    const DgnnModel& model, std::span<const sim::KernelDesc> kernels);

/// FuseRegisteredChains, also telling where each output kernel came from:
/// @p last_member[i] is the index in @p kernels of the last kernel output
/// i covers (its own index when it was kept as it is), so the entries
/// rise strictly.
[[nodiscard]] std::vector<sim::KernelDesc> FuseRegisteredChains(
    const DgnnModel& model, std::span<const sim::KernelDesc> kernels,
    std::vector<size_t>& last_member);

}  // namespace dgnn::models
