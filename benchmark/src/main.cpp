/// The repository benchmark (benchmark/README.md).
///
///   dgnn_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
///                  [--trace-dir DIR] [--smoke]
///   dgnn_benchmark --list
///
/// Repeats the workload until --seconds have passed (at least three times
/// untraced), reports host times in CPU seconds of the reference machine
/// (bench.hpp, CalibratedClock), and prints every metric as
/// "workload metric value unit", then
/// one JSON object {"correct", "attempted", "failed", "metrics"} as the last
/// line. --trace 0 reports the end-to-end metrics; --trace 1 alternates
/// untraced and traced repetitions, reports the per-layer metrics, and
/// writes host_trace.json and sim_trace.json under DIR/W. Exits 1 when a
/// correctness check failed and 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace dgnn::benchmark {
namespace {

constexpr const char* kOfflineWorkload = "offline_suite";
constexpr size_t kMinUntracedReps = 3;

struct Options {
    std::string workload;
    uint64_t seed = 1009;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_dir = "trace";
    bool smoke = false;
    bool list = false;
};

std::vector<std::string>
Workloads()
{
    std::vector<std::string> names = ServingWorkloads();
    names.emplace_back(kOfflineWorkload);
    return names;
}

Options
Parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::invalid_argument(arg + " needs a value");
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            o.seconds = std::stod(value());
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1") {
                throw std::invalid_argument("--trace takes 0 or 1");
            }
            o.trace = v == "1";
        } else if (arg == "--trace-dir") {
            o.trace_dir = value();
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--list") {
            o.list = true;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    const std::vector<std::string> names = Workloads();
    if (!o.list &&
        std::find(names.begin(), names.end(), o.workload) == names.end()) {
        throw std::invalid_argument("unknown or missing --workload '" +
                                    o.workload + "'");
    }
    return o;
}

/// Shortest text that reads back as the same double.
std::string
Num(double v)
{
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, end);
}

double
Median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool
SameSimulation(const RepResult& a, const RepResult& b)
{
    auto values = [](const RepResult& r) {
        std::vector<double> v = r.fingerprint;
        for (const Metric& m : r.sim.All()) {
            v.push_back(m.value);
        }
        return v;
    };
    return values(a) == values(b);
}

int
Run(const Options& o)
{
    const std::string trace_dir = o.trace_dir + "/" + o.workload;
    if (o.trace) {
        std::filesystem::create_directories(trace_dir);
    }
    auto rep = [&](HostTrace* trace, bool check) {
        RepConfig config;
        config.seed = o.seed;
        config.smoke = o.smoke;
        config.trace = trace;
        config.check = check;
        if (trace != nullptr) {
            config.sim_trace_path = trace_dir + "/sim_trace.json";
        }
        return o.workload == kOfflineWorkload
                   ? RunOfflineRep(config)
                   : RunServingRep(o.workload, config);
    };

    const Stopwatch total;
    std::vector<RepResult> untraced;
    std::vector<RepResult> traced;
    double last_rep_s = 0.0;
    if (!o.trace) {
        while (untraced.size() < kMinUntracedReps ||
               total.Seconds() + last_rep_s <= o.seconds) {
            const Stopwatch clock;
            untraced.push_back(rep(nullptr, untraced.empty()));
            last_rep_s = clock.Seconds();
        }
    } else {
        // The first traced repetition runs the check pass and writes both
        // trace files.
        std::unique_ptr<HostTrace> first_trace;
        do {
            const Stopwatch clock;
            untraced.push_back(rep(nullptr, false));
            auto trace = std::make_unique<HostTrace>();
            traced.push_back(rep(trace.get(), first_trace == nullptr));
            if (first_trace == nullptr) {
                first_trace = std::move(trace);
            }
            last_rep_s = clock.Seconds();
        } while (total.Seconds() + last_rep_s <= o.seconds);
        std::ofstream(trace_dir + "/host_trace.json") << first_trace->ToJson();
    }

    // Simulated metrics must repeat bit-for-bit across repetitions and with
    // observers attached; a repetition that differs fails as a whole.
    int64_t attempted = 0;
    int64_t failed = 0;
    for (const std::vector<RepResult>* reps : {&untraced, &traced}) {
        for (const RepResult& r : *reps) {
            const bool same = SameSimulation(r, untraced.front());
            if (!same) {
                std::cerr << "check failed: simulated metrics differ between "
                             "repetitions\n";
            }
            attempted += r.attempted;
            failed += same ? r.failed : r.attempted;
        }
    }

    auto medians = [](const std::vector<RepResult>& reps,
                      double RepResult::*field) {
        std::vector<double> values;
        for (const RepResult& r : reps) {
            values.push_back(r.*field);
        }
        return Median(values);
    };
    MetricSet out;
    if (!o.trace) {
        for (const Metric& m : untraced.front().sim.All()) {
            out.Add(m.name, m.value, m.unit);
        }
        out.Add("host_s", medians(untraced, &RepResult::host_s), "s");
        out.Add("setup_s", medians(untraced, &RepResult::setup_s), "s");
        out.Add("peak_rss_mb", PeakRssMb(), "MB");
    } else {
        for (const auto& [name, unit] : LayerMetricNames()) {
            std::vector<double> values;
            for (const RepResult& r : traced) {
                if (const Metric* m = r.layers.Find(name)) {
                    values.push_back(m->value);
                }
            }
            out.Add(name, values.empty() ? 0.0 : Median(values), unit);
        }
        out.Add("obs.trace_overhead_pct",
                100.0 * (medians(traced, &RepResult::host_s) /
                             medians(untraced, &RepResult::host_s) -
                         1.0),
                "%");
    }

    for (const Metric& m : out.All()) {
        std::cout << o.workload << " " << m.name << " " << Num(m.value) << " "
                  << m.unit << "\n";
    }
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (size_t i = 0; i < out.All().size(); ++i) {
        const Metric& m = out.All()[i];
        std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
                  << "\": {\"value\": " << Num(m.value) << ", \"unit\": \""
                  << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dgnn::benchmark

int
main(int argc, char** argv)
{
    using namespace dgnn::benchmark;
    Options options;
    try {
        options = Parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "dgnn_benchmark: " << e.what()
                  << "\nusage: dgnn_benchmark --workload W [--seed N] "
                     "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--smoke]\n"
                     "       dgnn_benchmark --list\n";
        return 2;
    }
    if (options.list) {
        for (const std::string& name : Workloads()) {
            std::cout << name << "\n";
        }
        return 0;
    }
    try {
        return Run(options);
    } catch (const std::exception& e) {
        std::cerr << "dgnn_benchmark: " << e.what() << "\n";
        return 1;
    }
}
