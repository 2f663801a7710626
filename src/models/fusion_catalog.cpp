#include "models/fusion_catalog.hpp"

#include <algorithm>

namespace dgnn::models {

const std::vector<FusionPlan>&
FusionCatalog()
{
    using Parts = std::span<const sim::KernelDesc>;
    static const std::vector<FusionPlan> catalog = {
        // The aggregated per-node message tensor stays on-chip.
        {"TGN", "tgn_memory_fused", {"aggregate_last", "gru_memory_update"},
         [](Parts p, int64_t) -> std::vector<int64_t> {
             return {p[0].parallel_items * 4};
         }},
        // The src/dst embedding pairs the decoder consumes stay on-chip.
        {"TGN", "tgn_embed_fused", {"temporal_attention", "edge_decoder"},
         [](Parts p, int64_t row_bytes) -> std::vector<int64_t> {
             return {p[1].parallel_items * 2 * row_bytes};
         }},
        // Horizontal fusion: the two read disjoint inputs, no intermediate.
        {"TGAT", "tgat_encode_fused", {"time_encoding", "feature_projection"},
         [](Parts, int64_t) -> std::vector<int64_t> { return {0}; }},
        // The attended rows stay on-chip.
        {"TGAT", "tgat_attention_fused", {"attention", "merge_ffn"},
         [](Parts p, int64_t) -> std::vector<int64_t> {
             return {p[1].parallel_items * 4};
         }},
        // The projected user rows feed the predictor on-chip; the RNNs read
        // the already-gathered u/v rows.
        {"JODIE",
         "jodie_tbatch_fused",
         {"project_user", "predict_item", "rnn_update", "rnn_update"},
         [](Parts p, int64_t) -> std::vector<int64_t> {
             return {p[0].parallel_items * 4, 0, 0};
         }},
    };
    return catalog;
}

const FusionPlan*
FindFusionPlan(const std::string& chain)
{
    for (const FusionPlan& plan : FusionCatalog()) {
        if (plan.chain == chain) {
            return &plan;
        }
    }
    return nullptr;
}

std::vector<sim::KernelDesc>
FuseRegisteredChains(const DgnnModel& model, std::span<const sim::KernelDesc> kernels)
{
    const std::string name = model.Name();
    const auto starts = [](const FusionPlan& plan,
                           std::span<const sim::KernelDesc> rest) {
        return rest.size() >= plan.parts.size() &&
               std::equal(plan.parts.begin(), plan.parts.end(), rest.begin(),
                          [](const std::string& part, const sim::KernelDesc& k) {
                              return k.name == part;
                          });
    };

    std::vector<sim::KernelDesc> out;
    out.reserve(kernels.size());
    size_t i = 0;
    while (i < kernels.size()) {
        const auto rest = kernels.subspan(i);
        const auto plan = std::find_if(
            FusionCatalog().begin(), FusionCatalog().end(),
            [&](const FusionPlan& p) { return p.model == name && starts(p, rest); });
        if (plan == FusionCatalog().end()) {
            out.push_back(kernels[i]);
            ++i;
            continue;
        }
        const auto parts = rest.first(plan->parts.size());
        out.push_back(sim::Collapse(sim::FusedKernelDesc{
            plan->chain, {parts.begin(), parts.end()},
            plan->boundary_bytes(parts, model.CacheRowBytes())}));
        i += parts.size();
    }
    return out;
}

}  // namespace dgnn::models
