#pragma once

/// @file
/// Kernel fusion over the analytic cost model. A FusedKernelDesc composes a
/// chain of KernelDescs into ONE launch:
///
///   launch_overhead  paid once instead of once per part
///   flops            sum over parts
///   bytes            sum over parts, minus the chain-internal intermediate
///                    tensors each boundary keeps in registers/shared memory
///                    (an intermediate is counted out of BOTH the producer's
///                    write bytes and the consumer's read bytes); a kRun
///                    whose steps all read the same W <= kOnChipWeightBudget
///                    weight bytes also drops (steps - 1) x W: it stashes
///                    the weights on-chip once and every later step reuses
///                    them (see FusedShape)
///   weight_bytes     sum over parts; W for a kRun that stashes them
///   parallel_items   max over parts (the chain occupies the device as well
///                    as its widest stage); a kRun, whose steps run one
///                    after another behind a barrier, takes the min instead
///                    (see FusedShape)
///   irregular        any irregular part poisons the whole chain: the fused
///                    kernel inherits the worst access pattern, which is why
///                    fusing a regular GEMM behind a gather can LOSE on
///                    byte-bound chains and why placement stays a per-batch
///                    decision (src/dispatch/) instead of a global switch
///
/// Fusion is not monotone in general. "Never slower" in
/// ModelFusionTest.*FusedProfileHasFewerLaunchesNeverSlower holds only for
/// the configs those tests pin (k = 4, small dims): at the serving benches'
/// TGN (k = 10) the fused chain loses for a 1-3 request batch and wins from
/// 4 requests, so serving prices both chains per batch.
///
/// Collapse() is device-independent: the same collapsed descriptor prices on
/// any DeviceSpec via the unchanged KernelDuration(), so fused launches flow
/// through Runtime::Launch, tracing, and profile capture with zero runtime
/// changes. This mirrors the paper's Fig 6/7 diagnosis — many tiny irregular
/// kernels whose launch overhead swamps execution — and the fusion remedies
/// surveyed in PAPERS.md.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/kernel.hpp"

namespace dgnn::sim {

/// How the parts of a collapsed launch share the device.
enum class FusedShape {
    /// Producer->consumer stages that stream through one pass: the launch
    /// occupies the device like its widest stage.
    kChain,
    /// Dependent steps of a device-side loop: each step finishes before the
    /// next starts, so only the launch is shared. The launch is priced at
    /// the occupancy of its narrowest step, which keeps its execution near
    /// the sum of its steps' (the widest-stage rule would price a 43-step
    /// JODIE run at 0.39x of it). When every step reads the same W weight
    /// bytes and W fits kOnChipWeightBudget, the loop loads them into
    /// shared memory once (a persistent RNN, Diamos et al., ICML 2016), so
    /// only the first step pays them. A run at the occupancy floor is one
    /// SM's worth of work: one block holds the stash and its step
    /// boundaries are block barriers, which the model leaves unpriced.
    kRun,
};

/// Shared memory one thread block can hold: 99 KiB (101,376 B), the
/// per-block limit of compute capability 8.6, the RTX A6000's sm_86
/// (CUDA C++ Programming Guide, "Technical Specifications per Compute
/// Capability"). A kRun stashes its steps' weights on-chip only when they
/// fit in it.
inline constexpr int64_t kOnChipWeightBudget = 101376;

/// A chain of kernels composed into one launch. parts run in order; the
/// boundary between parts[i] and parts[i+1] keeps intermediate_bytes[i]
/// bytes on-chip (never touching device memory or PCIe). Only a kRun keeps
/// weights on-chip; a kChain's parts each read their own.
struct FusedKernelDesc {
    /// Collapsed launch name, e.g. "tgn_memory_fused".
    std::string name;

    /// The unfused kernels, in execution order. Must be non-empty.
    std::vector<KernelDesc> parts;

    /// Bytes of the intermediate tensor at each part boundary; size must be
    /// parts.size() - 1 and every entry non-negative. An entry of 0 models
    /// horizontal fusion (no producer/consumer tensor, just a shared launch).
    std::vector<int64_t> intermediate_bytes;

    /// How the parts share the device; sets the collapsed parallel_items.
    FusedShape shape = FusedShape::kChain;
};

/// Collapse the chain into a single KernelDesc priced by the unchanged cost
/// model. Device-independent; validates the chain (non-empty, boundary count,
/// non-negative intermediates and work, positive parallel_items, each part's
/// weight_bytes within [0, bytes]).
[[nodiscard]] KernelDesc Collapse(const FusedKernelDesc& fused);

/// Duration of the chain as ONE launch: KernelDuration(spec, Collapse(fused)).
[[nodiscard]] SimTime FusedDuration(const DeviceSpec& spec,
                                    const FusedKernelDesc& fused);

/// Duration of the chain launched part by part: sum of KernelDuration over
/// parts, each paying its own launch overhead and full memory traffic.
[[nodiscard]] SimTime UnfusedDuration(const DeviceSpec& spec,
                                      const FusedKernelDesc& fused);

}  // namespace dgnn::sim
