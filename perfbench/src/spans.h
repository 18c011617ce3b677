#pragma once

// Span recording for the traced run. Spans are taken by the benchmark
// around its own calls into each layer's public functions (see replay.cpp);
// the program itself is not instrumented beyond the solver histograms it
// already keeps (solver.solve_us, solver.prepass_us), which are read at span
// boundaries so solver time can be split out of the spans that contain it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/support/metrics.h"

namespace perfbench {

/// One timed call into a layer.
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;  ///< since the recorder's epoch
    std::int64_t end_ns = 0;
    int parent = -1;   ///< index of the enclosing span; -1 for a root
    int request = -1;  ///< shared by every span of one request
    /// Solver search and pre-pass time inside this span (inclusive of
    /// child spans), from the solver's own histograms. Only meaningful
    /// while the metrics registry is enabled.
    std::int64_t solve_us = 0;
    std::int64_t prepass_us = 0;
};

/// In-memory span store; written out once, when the run ends.
class SpanRecorder {
public:
    SpanRecorder();

    void set_request(int id) { request_ = id; }
    [[nodiscard]] int open(const char* name);
    void close(int index);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] std::size_t size() const { return spans_.size(); }

    /// One JSON object per span: name, start/end (µs), parent, request.
    [[nodiscard]] bool write_jsonl(const std::string& path) const;

private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int request_ = -1;
    preinfer::support::MetricHistogram& solve_us_;
    preinfer::support::MetricHistogram& prepass_us_;
    std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
    ScopedSpan(SpanRecorder& recorder, const char* name)
        : recorder_(recorder), index_(recorder.open(name)) {}
    ~ScopedSpan() { recorder_.close(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanRecorder& recorder_;
    int index_;
};

/// Per-layer totals over a range of spans. Self time is a span's duration
/// minus what its child spans cover and minus the solver time that ran
/// directly inside it; that solver time is booked to the pseudo-layers
/// `solver.search` and `solver.prepass`.
struct LayerTable {
    struct Row {
        double inclusive_ms = 0;  ///< summed span durations (0 for solver rows)
        double self_ms = 0;
        std::int64_t calls = 0;
    };
    std::map<std::string, Row> rows;

    [[nodiscard]] double self_total_ms() const;
    [[nodiscard]] double inclusive(const std::string& name) const;
    [[nodiscard]] double self(const std::string& name) const;
};

[[nodiscard]] LayerTable layer_table(const std::vector<Span>& spans, std::size_t begin,
                                     std::size_t end);

/// Prints the table sorted by self time, with each row's share of `wall_ms`
/// and the coverage line (self times summed against the wall time).
void print_layer_table(const LayerTable& table, double wall_ms, const char* title);

}  // namespace perfbench
