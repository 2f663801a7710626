#include "scenario/scenario.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace dgnn::scenario {

const char*
ToString(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::kPoisson:
        return "poisson";
      case ArrivalKind::kDiurnal:
        return "diurnal";
      case ArrivalKind::kFlashCrowd:
        return "flash-crowd";
      case ArrivalKind::kMmpp:
        return "mmpp";
    }
    return "?";
}

const char*
ToString(AccessKind kind)
{
    switch (kind) {
      case AccessKind::kTraceReplay:
        return "trace-replay";
      case AccessKind::kDriftingHotSet:
        return "hotset-drift";
      case AccessKind::kPreferentialBursts:
        return "pref-burst";
      case AccessKind::kCommunityChurn:
        return "community-churn";
    }
    return "?";
}

namespace {

std::vector<sim::SimTime>
GenerateArrivalTimes(const Scenario& s, int64_t n)
{
    switch (s.arrival) {
      case ArrivalKind::kPoisson:
        return serve::PoissonArrivals(s.poisson_qps, n, s.poisson_seed);
      case ArrivalKind::kDiurnal:
        return DiurnalArrivals(s.diurnal, n);
      case ArrivalKind::kFlashCrowd:
        return FlashCrowdArrivals(s.flash_crowd, n);
      case ArrivalKind::kMmpp:
        return MmppArrivals(s.mmpp, n);
    }
    DGNN_CHECK(false, "unknown arrival kind");
    return {};
}

}  // namespace

std::vector<serve::Request>
GenerateRequests(const Scenario& s, const data::InteractionDataset& dataset,
                 int64_t n)
{
    const std::vector<sim::SimTime> arrivals = GenerateArrivalTimes(s, n);
    std::vector<serve::Request> requests;
    requests.reserve(arrivals.size());
    for (int64_t i = 0; i < n; ++i) {
        requests.push_back(serve::Request{i, arrivals[static_cast<size_t>(i)]});
    }

    switch (s.access) {
      case AccessKind::kTraceReplay: {
        const graph::EventStream& stream = dataset.stream;
        DGNN_CHECK(stream.NumEvents() > 0,
                   "trace-replay access needs a non-empty dataset stream");
        for (int64_t i = 0; i < n; ++i) {
            const graph::TemporalEvent& e =
                stream.Event(i % stream.NumEvents());
            requests[static_cast<size_t>(i)].src = e.src;
            requests[static_cast<size_t>(i)].dst = e.dst;
        }
        break;
      }
      case AccessKind::kDriftingHotSet:
        AssignDriftingHotSet(requests, s.hot_set);
        break;
      case AccessKind::kPreferentialBursts:
        AssignPreferentialBursts(requests, s.preferential);
        break;
      case AccessKind::kCommunityChurn:
        AssignCommunityChurn(requests, s.churn);
        break;
    }
    return requests;
}

std::vector<Scenario>
GauntletScenarios(double base_qps, int64_t num_requests, int64_t num_nodes,
                  uint64_t seed)
{
    DGNN_CHECK(base_qps > 0.0, "base rate must be positive, got ", base_qps);
    DGNN_CHECK(num_requests > 0, "need a positive request count, got ",
               num_requests);
    DGNN_CHECK(num_nodes > 0, "need a positive node count, got ", num_nodes);

    // Expected serving span at the base rate; non-stationary features are
    // placed relative to it so they land inside the window at any scale.
    const double span_s = static_cast<double>(num_requests) / base_qps;

    DiurnalSpec diurnal;
    diurnal.base_qps = base_qps;
    diurnal.peak_ratio = 4.0;
    diurnal.period_s = span_s;  // one full "day" across the run
    diurnal.seed = seed + 1;

    FlashCrowdSpec flash;
    flash.base_qps = base_qps;
    flash.spike_factor = 16.0;
    flash.spike_start_s = 0.3 * span_s;
    flash.spike_duration_s = 0.2 * span_s;
    flash.seed = seed + 2;

    MmppSpec mmpp;
    mmpp.on_qps = 3.0 * base_qps;
    mmpp.off_qps = base_qps / 3.0;
    mmpp.mean_on_s = 0.1 * span_s;
    mmpp.mean_off_s = 0.2 * span_s;
    mmpp.seed = seed + 3;

    DriftingHotSetSpec hot;
    hot.num_nodes = num_nodes;
    hot.hot_nodes = std::max<int64_t>(8, num_nodes / 16);
    hot.hot_fraction = 0.85;
    hot.drift_every = std::max<int64_t>(1, num_requests / 16);
    hot.drift_stride = hot.hot_nodes;  // every rotation is fully cold
    hot.seed = seed + 4;

    PreferentialBurstSpec pref;
    pref.num_nodes = num_nodes;
    pref.attach_bias = 0.75;
    pref.burst_every = std::max<int64_t>(1, num_requests / 8);
    pref.burst_len = std::max<int64_t>(1, num_requests / 32);
    pref.seed = seed + 5;

    CommunityChurnSpec churn;
    churn.num_communities = std::min<int64_t>(16, num_nodes);
    churn.community_size =
        std::max<int64_t>(1, num_nodes / churn.num_communities);
    churn.in_community = 0.95;
    churn.churn_every = std::max<int64_t>(1, num_requests / 8);
    churn.seed = seed + 6;

    std::vector<Scenario> scenarios;
    auto add = [&](std::string name, ArrivalKind arrival, AccessKind access) {
        Scenario s;
        s.name = std::move(name);
        s.arrival = arrival;
        s.access = access;
        s.poisson_qps = base_qps;
        s.poisson_seed = seed;
        s.diurnal = diurnal;
        s.flash_crowd = flash;
        s.mmpp = mmpp;
        s.hot_set = hot;
        s.preferential = pref;
        s.churn = churn;
        scenarios.push_back(std::move(s));
    };

    // The recurrent baseline first: the PR 2/3 regime every adversarial
    // row is judged against.
    add("poisson/recurrent", ArrivalKind::kPoisson, AccessKind::kTraceReplay);
    add("diurnal/recurrent", ArrivalKind::kDiurnal, AccessKind::kTraceReplay);
    add("flash-crowd/recurrent", ArrivalKind::kFlashCrowd,
        AccessKind::kTraceReplay);
    add("mmpp/recurrent", ArrivalKind::kMmpp, AccessKind::kTraceReplay);
    add("poisson/hotset-drift", ArrivalKind::kPoisson,
        AccessKind::kDriftingHotSet);
    add("flash-crowd/pref-burst", ArrivalKind::kFlashCrowd,
        AccessKind::kPreferentialBursts);
    add("mmpp/community-churn", ArrivalKind::kMmpp,
        AccessKind::kCommunityChurn);
    return scenarios;
}

}  // namespace dgnn::scenario
