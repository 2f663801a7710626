#pragma once

/// @file
/// Scenario = arrival pattern x access pattern. An arrival generator
/// (arrival_patterns.hpp) times the requests; an access shaper
/// (access_patterns.hpp) or a trace replay over a
/// data/temporal_interactions dataset assigns the node endpoints.
/// GenerateRequests hands the result to serve::ServeRequests, so every
/// adversarial regime exercises the identical serving loop, batch
/// policies, executors, and DeviceCache as the benign PR 2 processes.
///
/// GauntletScenarios() is the committed registry the serving-gauntlet
/// bench sweeps: a recurrent baseline (the PR 3 locality regime) plus
/// non-stationary arrivals and cache-adversarial access regimes, all
/// deterministic in one seed.

#include <cstdint>
#include <string>
#include <vector>

#include "data/temporal_interactions.hpp"
#include "scenario/access_patterns.hpp"
#include "scenario/arrival_patterns.hpp"
#include "serve/request.hpp"

namespace dgnn::scenario {

/// WHEN requests arrive.
enum class ArrivalKind {
    kPoisson,     ///< stationary Poisson (the benign baseline)
    kDiurnal,     ///< sinusoidal rate cycle
    kFlashCrowd,  ///< step-function crowd window
    kMmpp,        ///< bursty ON/OFF Markov-modulated Poisson
};

/// WHICH nodes requests touch.
enum class AccessKind {
    kTraceReplay,         ///< dataset stream endpoints, cycled (recurrent)
    kDriftingHotSet,      ///< hot working set that rotates to defeat LRU
    kPreferentialBursts,  ///< rich-get-richer with celebrity bursts
    kCommunityChurn,      ///< active-community traffic that churns
};

const char* ToString(ArrivalKind kind);
const char* ToString(AccessKind kind);

/// One named scenario: kinds plus the full parameter set. Only the spec
/// matching each kind is consulted.
struct Scenario {
    std::string name;
    ArrivalKind arrival = ArrivalKind::kPoisson;
    AccessKind access = AccessKind::kTraceReplay;

    double poisson_qps = 1000.0;
    uint64_t poisson_seed = 1;
    DiurnalSpec diurnal;
    FlashCrowdSpec flash_crowd;
    MmppSpec mmpp;

    DriftingHotSetSpec hot_set;
    PreferentialBurstSpec preferential;
    CommunityChurnSpec churn;
};

/// Generates @p n requests for @p s: arrival times from the scenario's
/// arrival pattern, endpoints from its access pattern (@p dataset supplies
/// the trace-replay endpoints). Deterministic in (s, dataset, n).
std::vector<serve::Request> GenerateRequests(const Scenario& s,
                                             const data::InteractionDataset& dataset,
                                             int64_t n);

/// The gauntlet registry: a recurrent baseline plus the adversarial
/// regimes, sized to @p num_requests at @p base_qps over @p num_nodes
/// (non-stationary windows scale with the expected run span, so bursts
/// land inside the serving window at any scale). Deterministic in @p seed.
std::vector<Scenario> GauntletScenarios(double base_qps, int64_t num_requests,
                                        int64_t num_nodes, uint64_t seed);

}  // namespace dgnn::scenario
