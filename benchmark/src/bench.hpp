#pragma once

/// @file
/// Shared types of the repository benchmark (benchmark/README.md): the
/// metric set a repetition produces, correctness accounting, the host-clock
/// span tracer, and the workload entry points. The benchmark drives the
/// library only through its public entry points and times them from
/// outside; nothing here is linked into the library.

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace dgnn::benchmark {

/// One named value with its unit.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Metrics in the order they were added.
class MetricSet {
  public:
    void Add(const std::string& name, double value, const std::string& unit)
    {
        metrics_.push_back(Metric{name, value, unit});
    }
    const std::vector<Metric>& All() const { return metrics_; }
    /// The metric named @p name, or null.
    const Metric* Find(const std::string& name) const;

  private:
    std::vector<Metric> metrics_;
};

/// Host (wall) clock spans around the calls into each library layer. A span
/// records its layer, name, parent and start/end; spans stay in memory and
/// are written out once, at exit.
class HostTrace {
  public:
    struct Span {
        std::string layer;
        std::string name;
        int parent = -1;
        double start_s = 0.0;
        double end_s = 0.0;
    };

    HostTrace();

    int Begin(std::string layer, std::string name);
    void End(int id);

    /// Wall time inside the outermost spans of @p layer.
    double LayerSeconds(const std::string& layer) const;

    /// Wall time inside the spans named @p name.
    double SpanSeconds(const std::string& name) const;

    /// Per layer, the time its spans cover minus the part covered by their
    /// child spans.
    std::map<std::string, double> SelfSeconds() const;

    /// Chrome-trace JSON ("X" slices on one lane, parent ids in args) plus
    /// a "self_s" object holding SelfSeconds().
    std::string ToJson() const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span; a null trace makes it a no-op that never reads the clock.
class Scope {
  public:
    Scope(HostTrace* trace, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    HostTrace* trace_;
    int id_ = -1;
};

/// Stopwatch on the wall clock and on the process's CPU clock.
class Stopwatch {
  public:
    Stopwatch()
        : start_(std::chrono::steady_clock::now()), cpu_start_s_(ProcessCpuS())
    {
    }
    double Seconds() const
    {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
            .count();
    }
    /// CPU time the process spent since construction. Unlike wall time it
    /// leaves out the time other programs on a shared machine hold the CPU.
    double CpuSeconds() const { return ProcessCpuS() - cpu_start_s_; }

  private:
    static double ProcessCpuS()
    {
        timespec t{};
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
        return static_cast<double>(t.tv_sec) +
               1e-9 * static_cast<double>(t.tv_nsec);
    }

    std::chrono::steady_clock::time_point start_;
    double cpu_start_s_;
};

/// CPU seconds of a fixed calibration loop that never calls the library:
/// 1.5 million random reads and writes over a 16 MiB table feeding a
/// dependent floating-point chain. Its time tracks the host's current speed,
/// which on a shared machine changes with what the neighbours run.
double CalibrationCpuSeconds();

/// What CalibrationCpuSeconds() takes on the reference machine, an idle
/// 4-core Intel Xeon VM.
constexpr double kReferenceCalibrationS = 0.0225;

/// Host CPU time in seconds of the reference machine. The time between two
/// laps is one segment; the calibration loop runs at both ends of it, and
/// the segment's CPU time is scaled by kReferenceCalibrationS over the mean
/// of the two. Calibration itself is not counted.
class CalibratedClock {
  public:
    CalibratedClock() : calibration_s_(CalibrationCpuSeconds()) {}

    /// Ends the current segment and starts the next.
    void Lap();

    /// The scaled time of the segments ended since the last Take().
    double Take();

  private:
    double calibration_s_;
    double total_s_ = 0.0;
    Stopwatch segment_;
};

/// Quantile @p q of @p values, interpolating linearly between the two
/// nearest order statistics (Python's statistics.quantiles "inclusive").
double Quantile(std::vector<double> values, double q);

/// How one repetition runs.
struct RepConfig {
    uint64_t seed = 1009;
    /// Tiny request counts and runs (the self-test mode).
    bool smoke = false;
    /// Null for an untraced repetition. When set, observers are attached
    /// and the repetition fills RepResult::layers.
    HostTrace* trace = nullptr;
    /// Run the correctness-check pass (hazards, span conservation); done
    /// once per process, outside the timed phases.
    bool check = false;
    /// Where the check pass writes sim_trace.json (traced runs only).
    std::string sim_trace_path;
};

/// Everything one repetition produces.
struct RepResult {
    /// End-to-end metrics on the simulated clock.
    MetricSet sim;
    /// Further simulated values that must repeat bit-for-bit.
    std::vector<double> fingerprint;
    /// Per-layer metrics (traced repetitions only).
    MetricSet layers;
    /// Host CPU seconds of the set-up and of the measured phase, on the
    /// reference machine (CalibratedClock).
    double setup_s = 0.0;
    double host_s = 0.0;
    /// Requests served (serving) or model runs (offline) and how many of
    /// them failed a correctness check.
    int64_t attempted = 0;
    int64_t failed = 0;

    /// Counts @p weight failures when @p ok is false and reports @p what on
    /// stderr.
    void Check(bool ok, int64_t weight, const std::string& what);
};

/// Workload entry points (serving.cpp, offline.cpp).
std::vector<std::string> ServingWorkloads();
RepResult RunServingRep(const std::string& workload, const RepConfig& config);
RepResult RunOfflineRep(const RepConfig& config);

/// The per-layer metric names every workload reports (zero where a layer
/// is bypassed), with units, in output order. obs.trace_overhead_pct is not
/// among them: it compares traced with untraced repetitions, so main.cpp
/// adds it once after these.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

/// The eight offline-suite model ids used in per-layer metric names.
const std::vector<std::string>& OfflineModelIds();

}  // namespace dgnn::benchmark
