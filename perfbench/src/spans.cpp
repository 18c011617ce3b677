#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::int64_t ns_since(std::chrono::steady_clock::time_point epoch) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

}  // namespace

SpanRecorder::SpanRecorder()
    : solve_us_(preinfer::support::MetricsRegistry::global().histogram("solver.solve_us")),
      prepass_us_(
          preinfer::support::MetricsRegistry::global().histogram("solver.prepass_us")),
      epoch_(std::chrono::steady_clock::now()) {
    spans_.reserve(1 << 16);
}

int SpanRecorder::open(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request_;
    // Histogram sums are read before the clock so their cost lands outside
    // the span being opened.
    span.solve_us = solve_us_.sum();
    span.prepass_us = prepass_us_.sum();
    span.start_ns = ns_since(epoch_);
    spans_.push_back(span);
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void SpanRecorder::close(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = ns_since(epoch_);
    span.solve_us = solve_us_.sum() - span.solve_us;
    span.prepass_us = prepass_us_.sum() - span.prepass_us;
    stack_.pop_back();
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& s : spans_) {
        std::fprintf(out,
                     "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                     "\"parent\":%d,\"request\":%d,\"solve_us\":%lld,"
                     "\"prepass_us\":%lld}\n",
                     s.name, static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns) / 1e3, s.parent, s.request,
                     static_cast<long long>(s.solve_us),
                     static_cast<long long>(s.prepass_us));
    }
    return std::fclose(out) == 0;
}

double LayerTable::self_total_ms() const {
    double total = 0;
    for (const auto& [name, row] : rows) total += row.self_ms;
    return total;
}

double LayerTable::inclusive(const std::string& name) const {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : it->second.inclusive_ms;
}

double LayerTable::self(const std::string& name) const {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : it->second.self_ms;
}

LayerTable layer_table(const std::vector<Span>& spans, std::size_t begin,
                       std::size_t end) {
    struct Children {
        std::int64_t ns = 0;
        std::int64_t solve_us = 0;
        std::int64_t prepass_us = 0;
    };
    std::vector<Children> children(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
        const Span& s = spans[i];
        if (s.parent < static_cast<int>(begin)) continue;
        Children& c = children[static_cast<std::size_t>(s.parent) - begin];
        c.ns += s.end_ns - s.start_ns;
        c.solve_us += s.solve_us;
        c.prepass_us += s.prepass_us;
    }
    LayerTable table;
    for (std::size_t i = begin; i < end; ++i) {
        const Span& s = spans[i];
        const Children& c = children[i - begin];
        const std::int64_t dur_ns = s.end_ns - s.start_ns;
        const std::int64_t own_solve_us = s.solve_us - c.solve_us;
        const std::int64_t own_prepass_us = s.prepass_us - c.prepass_us;
        LayerTable::Row& row = table.rows[s.name];
        row.inclusive_ms += static_cast<double>(dur_ns) / 1e6;
        row.self_ms += static_cast<double>(dur_ns - c.ns) / 1e6 -
                       static_cast<double>(own_solve_us + own_prepass_us) / 1e3;
        ++row.calls;
        if (own_solve_us > 0) {
            table.rows["solver.search"].self_ms += static_cast<double>(own_solve_us) / 1e3;
        }
        if (own_prepass_us > 0) {
            table.rows["solver.prepass"].self_ms +=
                static_cast<double>(own_prepass_us) / 1e3;
        }
    }
    return table;
}

void print_layer_table(const LayerTable& table, double wall_ms, const char* title) {
    std::vector<std::pair<std::string, LayerTable::Row>> sorted(table.rows.begin(),
                                                                table.rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
        return a.second.self_ms > b.second.self_ms;
    });
    std::printf("%s\n", title);
    std::printf("  %-18s %10s %12s %12s %7s\n", "layer", "calls", "incl ms", "self ms",
                "self %");
    for (const auto& [name, row] : sorted) {
        std::printf("  %-18s %10lld %12.2f %12.2f %6.1f%%\n", name.c_str(),
                    static_cast<long long>(row.calls), row.inclusive_ms, row.self_ms,
                    wall_ms > 0 ? 100.0 * row.self_ms / wall_ms : 0.0);
    }
    const double total = table.self_total_ms();
    std::printf("  %-18s %10s %12s %12.2f %6.1f%%  (wall %.2f ms)\n", "sum of self", "",
                "", total, wall_ms > 0 ? 100.0 * total / wall_ms : 0.0, wall_ms);
}

}  // namespace perfbench
