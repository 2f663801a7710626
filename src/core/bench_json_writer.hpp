#pragma once

/// @file
/// Machine-readable perf-trajectory output: a minimal, dependency-free
/// JSON emitter for BENCH_*.json files. Each bench that wants a trajectory
/// appends flat records (string / integer / fixed-precision double fields,
/// key order = insertion order) and writes one file:
///
///   {"bench": "serving_gauntlet", "schema": 1, "records": [{...}, ...]}
///
/// The emitter is schema-stable by construction — field order, float
/// formatting (fixed precision, no locale), and escaping never depend on
/// platform or build — so two runs of a deterministic bench produce
/// byte-identical files, which the golden test (scripts/check_golden.sh)
/// diffs against the committed baselines.

#include <cstdint>
#include <string>
#include <vector>

namespace dgnn::core {

/// Escapes a string for embedding in a JSON document (quotes, backslashes,
/// control characters).
std::string JsonEscape(const std::string& raw);

/// Accumulates flat records and serializes the BENCH_*.json envelope.
class BenchJsonWriter {
  public:
    /// @param bench_name  trajectory identifier (the file's "bench" field)
    /// @param schema      bumped when the record layout changes meaning
    explicit BenchJsonWriter(std::string bench_name, int64_t schema = 1);

    /// Opens a new record; subsequent Field calls append to it in order.
    void BeginRecord();

    void Field(const std::string& key, const std::string& value);
    void Field(const std::string& key, const char* value);
    void Field(const std::string& key, int64_t value);
    /// Fixed-precision double (printf %.*f) — deterministic formatting.
    void Field(const std::string& key, double value, int precision);

    int64_t RecordCount() const
    {
        return static_cast<int64_t>(records_.size());
    }

    /// The full JSON document (pretty-printed, one record per line).
    std::string ToString() const;

    /// Writes ToString() to @p path (throws dgnn::Error on I/O failure).
    void WriteFile(const std::string& path) const;

  private:
    void Append(const std::string& key, std::string rendered_value);

    std::string bench_name_;
    int64_t schema_;
    /// Each record is its pre-rendered "key": value list, joined at
    /// serialization time.
    std::vector<std::vector<std::string>> records_;
};

}  // namespace dgnn::core
