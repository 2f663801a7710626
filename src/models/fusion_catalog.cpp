#include "models/fusion_catalog.hpp"

#include <algorithm>
#include <numeric>

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
        // The batch's t-batches in one device-side loop. Each step reads the
        // rows the previous one wrote back to device memory, so no row stays
        // on-chip; sim::Collapse keeps the steps' weights there instead.
        {"JODIE", "jodie_tbatch_run", {"jodie_tbatch_fused"},
         [](Parts p, int64_t) { return std::vector<int64_t>(p.size() - 1, 0); },
         sim::FusedShape::kRun},
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

namespace {

/// How many kernels from the front of @p rest @p plan collapses; 0 when it
/// does not match there.
size_t
MatchLength(const FusionPlan& plan, std::span<const sim::KernelDesc> rest)
{
    const auto named = [](const std::string& part, const sim::KernelDesc& k) {
        return k.name == part;
    };
    if (plan.shape == sim::FusedShape::kRun) {
        const auto end = std::find_if(rest.begin(), rest.end(), [&](const auto& k) {
            return !named(plan.parts[0], k);
        });
        const auto steps = static_cast<size_t>(end - rest.begin());
        return steps >= 2 ? steps : 0;
    }
    const bool starts =
        rest.size() >= plan.parts.size() &&
        std::equal(plan.parts.begin(), plan.parts.end(), rest.begin(), named);
    return starts ? plan.parts.size() : 0;
}

}  // namespace

std::vector<sim::KernelDesc>
FuseRegisteredChains(const DgnnModel& model, std::span<const sim::KernelDesc> kernels,
                     std::vector<size_t>& last_member)
{
    std::vector<sim::KernelDesc> out(kernels.begin(), kernels.end());
    last_member.resize(out.size());
    std::iota(last_member.begin(), last_member.end(), size_t{0});
    for (const FusionPlan& plan : FusionCatalog()) {
        if (plan.model != model.Name()) {
            continue;
        }
        std::vector<sim::KernelDesc> fused;
        std::vector<size_t> fused_last;
        fused.reserve(out.size());
        fused_last.reserve(out.size());
        size_t i = 0;
        while (i < out.size()) {
            const auto rest = std::span<const sim::KernelDesc>(out).subspan(i);
            const size_t length = MatchLength(plan, rest);
            if (length == 0) {
                fused.push_back(std::move(out[i]));
                fused_last.push_back(last_member[i]);
                ++i;
                continue;
            }
            const auto parts = rest.first(length);
            fused.push_back(sim::Collapse(sim::FusedKernelDesc{
                plan.chain, {parts.begin(), parts.end()},
                plan.boundary_bytes(parts, model.CacheRowBytes()), plan.shape}));
            fused_last.push_back(last_member[i + length - 1]);
            i += length;
        }
        out = std::move(fused);
        last_member = std::move(fused_last);
    }
    return out;
}

std::vector<sim::KernelDesc>
FuseRegisteredChains(const DgnnModel& model, std::span<const sim::KernelDesc> kernels)
{
    std::vector<size_t> last_member;
    return FuseRegisteredChains(model, kernels, last_member);
}

}  // namespace dgnn::models
