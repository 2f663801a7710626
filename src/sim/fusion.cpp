#include "sim/fusion.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dgnn::sim {

KernelDesc
Collapse(const FusedKernelDesc& fused)
{
    const size_t n = fused.parts.size();
    DGNN_CHECK(n >= 1, "fused chain '", fused.name, "' has no parts");
    DGNN_CHECK(fused.intermediate_bytes.size() == n - 1, "fused chain '",
               fused.name, "' has ", n, " parts but ",
               fused.intermediate_bytes.size(),
               " boundary intermediates (want parts - 1)");
    for (const int64_t bytes : fused.intermediate_bytes) {
        DGNN_CHECK(bytes >= 0, "fused chain '", fused.name,
                   "' has a negative intermediate (", bytes, " bytes)");
    }

    KernelDesc out{.name = fused.name};
    for (size_t i = 0; i < n; ++i) {
        const KernelDesc& part = fused.parts[i];
        DGNN_CHECK(part.flops >= 0 && part.bytes >= 0, "fused chain '",
                   fused.name, "' part '", part.name, "' has negative work");
        DGNN_CHECK(part.parallel_items >= 1, "fused chain '", fused.name,
                   "' part '", part.name, "' has non-positive parallel_items ",
                   part.parallel_items);
        out.flops += part.flops;
        // The intermediate at each boundary stays on-chip: the producer does
        // not write it and the consumer does not read it back. Clamp per part
        // so an optimistic intermediate estimate cannot go negative.
        int64_t on_chip = 0;
        if (i > 0) {
            on_chip += fused.intermediate_bytes[i - 1];
        }
        if (i + 1 < n) {
            on_chip += fused.intermediate_bytes[i];
        }
        out.bytes += std::max<int64_t>(0, part.bytes - on_chip);
        out.parallel_items = std::max(out.parallel_items, part.parallel_items);
        out.irregular = out.irregular || part.irregular;
    }
    return out;
}

SimTime
FusedDuration(const DeviceSpec& spec, const FusedKernelDesc& fused)
{
    return KernelDuration(spec, Collapse(fused));
}

SimTime
UnfusedDuration(const DeviceSpec& spec, const FusedKernelDesc& fused)
{
    DGNN_CHECK(!fused.parts.empty(), "fused chain '", fused.name,
               "' has no parts");
    SimTime total = 0.0;
    for (const KernelDesc& part : fused.parts) {
        total += KernelDuration(spec, part);
    }
    return total;
}

}  // namespace dgnn::sim
