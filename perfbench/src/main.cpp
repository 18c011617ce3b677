// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload corpus-cold|corpus-warm|serve-generated
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//   perfbench --self-test --out-dir DIR
//
// One run sets the workload up several times (setup_s is the median), then
// repeats whole rounds of the workload until S seconds have passed, then
// checks every output outside the timed region. The last stdout line is
// one JSON object: {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end ones, measured with all
// instrumentation off; with --trace 1 they are the per-layer ones, taken
// from a traced replay (replay.h) that runs next to untraced rounds.

#include <sched.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "replay.h"
#include "serve_load.h"
#include "spans.h"
#include "src/api/engine.h"
#include "src/api/serve.h"
#include "src/eval/corpus.h"
#include "src/eval/paper_metrics.h"
#include "src/fuzz/gen_program.h"
#include "src/solver/disk_cache.h"
#include "src/support/metrics.h"
#include "src/support/trace.h"

namespace {

using namespace preinfer;
using perfbench::CheckTally;
using Clock = std::chrono::steady_clock;

// ---- workload constants (README.md explains each choice) -------------------

constexpr int kCorpusSetups = 21;  ///< cold set-up is microseconds: take many
constexpr int kWarmSetups = 3;    ///< each warm set-up is a full recording pass
constexpr int kServeSetups = 41;  ///< about 6 ms each, mostly pool generation

constexpr std::uint64_t kPoolBase = 2018;  ///< pool program i = derive_seed(kPoolBase, i)
constexpr int kPoolSize = 64;
constexpr int kHotPrograms = 16;  ///< pool programs 0..15 are requested 5x per block
constexpr int kHotRepeats = 4;    ///< extra copies of each hot program per block
constexpr int kConnections = 3;  ///< open- and closed-loop connections
constexpr double kOpenRatePerS = 200.0;
constexpr int kOpenBlocks = 3;  ///< open-loop blocks sent after the timed rounds

fuzz::GenConfig serve_gen_config() {
    fuzz::GenConfig g;
    g.max_params = 5;
    g.max_block_stmts = 8;
    g.max_stmt_depth = 4;
    g.max_loop_literal = 8;
    g.max_expr_depth = 4;
    return g;
}

// ---- small helpers ----------------------------------------------------------

double ms_since(Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Linear-interpolated quantile of an unsorted sample (q in [0,1]).
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0;
    double s = 0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// SplitMix64: a platform-independent stream for the seeded orders.
struct SplitMix {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
    SplitMix rng{seed};
    for (std::size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1], v[rng.next() % i]);
    }
}

std::int64_t counter(const char* name) {
    return support::MetricsRegistry::global().counter(name).value();
}

std::int64_t solve_calls() {
    return support::MetricsRegistry::global().histogram("solver.solve_us").count();
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string fmt_num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (const Metric& m : metrics) {
        if (out.size() > 1) out += ", ";
        out += "\"" + m.name + "\": {\"value\": " + fmt_num(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    return out + "}";
}

/// The slowest unit of work: the largest per-unit median, where each unit
/// (a corpus method, a pool program) was timed once per round.
double slowest_unit_ms(const std::vector<std::vector<double>>& samples) {
    double slowest = 0;
    for (const std::vector<double>& unit : samples) slowest = std::max(slowest, median(unit));
    return slowest;
}

/// Raw samples in measurement order, for the run record.
std::string samples_json(const std::vector<double>& v) {
    std::string out = "[";
    for (const double x : v) out += (out.size() > 1 ? ", " : "") + fmt_num(x);
    return out + "]";
}

/// Median with quartiles and sample count, for the run record.
std::string spread_json(const std::vector<double>& v) {
    return "{\"median\": " + fmt_num(median(v)) + ", \"q1\": " + fmt_num(quantile(v, 0.25)) +
           ", \"q3\": " + fmt_num(quantile(v, 0.75)) + ", \"n\": " +
           std::to_string(v.size()) + "}";
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    bool self_test = false;
    std::string out_dir = ".bench_build/out";
};

/// What every workload hands back to main for printing.
struct Outcome {
    CheckTally tally;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;
    std::string record;  ///< extra run-record fields, `"key": value, ...`
};

// ---- per-layer metrics from a traced replay ---------------------------------

/// Registry counters the per-layer metrics read, as deltas over a phase.
struct CounterSnapshot {
    std::int64_t instructions = counter("il.compile.instructions");
    std::int64_t executions = counter("explorer.executions");
    std::int64_t queries = counter("solver.queries");
    std::int64_t solves = solve_calls();
    std::int64_t unknown = counter("solver.unknown");
    std::int64_t disk_hits = counter("solver.disk_hits");
    std::int64_t disk_misses = counter("solver.disk_misses");
};

/// Accumulates replay layer tables and counts; every value is reported per
/// unit of `per` (a corpus pass, or a serve request).
struct LayerAccumulator {
    perfbench::LayerTable table;
    perfbench::ReplayCounts counts;
    CounterSnapshot delta{0, 0, 0, 0, 0, 0, 0};
    double replay_wall_ms = 0;

    void add_table(const perfbench::LayerTable& t) {
        for (const auto& [name, row] : t.rows) {
            auto& dst = table.rows[name];
            dst.inclusive_ms += row.inclusive_ms;
            dst.self_ms += row.self_ms;
            dst.calls += row.calls;
        }
    }
    void add_counts(const perfbench::ReplayCounts& c) {
        counts.tests += c.tests;
        counts.validation_tests += c.validation_tests;
        counts.predicates_before += c.predicates_before;
        counts.predicates_pruned += c.predicates_pruned;
        counts.pruning_fallbacks += c.pruning_fallbacks;
        counts.generalized_paths += c.generalized_paths;
    }
    void add_counters(const CounterSnapshot& before, const CounterSnapshot& after) {
        delta.instructions += after.instructions - before.instructions;
        delta.executions += after.executions - before.executions;
        delta.queries += after.queries - before.queries;
        delta.solves += after.solves - before.solves;
        delta.unknown += after.unknown - before.unknown;
        delta.disk_hits += after.disk_hits - before.disk_hits;
        delta.disk_misses += after.disk_misses - before.disk_misses;
    }
};

struct ServeLayer {
    double batches = 0;
    double batch_size_mean = 0;
    double response_bytes = 0;
};

/// The per_layer metrics of BENCHMARK.json, in its order. Layers a workload
/// does not run (baselines and validation on serve-generated, the disk
/// tier's load on the cold workloads, the serve front end on the corpus)
/// are not in this list — their times go on the `layers_extra` line.
std::vector<Metric> layer_metrics(const LayerAccumulator& acc, double per,
                                  const std::vector<double>& engine_unit_ms,
                                  double trace_overhead_ms, const ServeLayer& serve) {
    const perfbench::LayerTable& t = acc.table;
    const auto ms = [per](double total) { return total / per; };
    const auto count = [per](std::int64_t total) { return static_cast<double>(total) / per; };
    const double solve_ms = t.self("solver.search");
    const double prepass_ms = t.self("solver.prepass");
    const double explore_ms = t.inclusive("gen.explore");
    const double prune_ms = t.inclusive("core.prune");
    const double post_ms = t.inclusive("core.post_prune");
    const double served =
        acc.delta.queries > 0
            ? 1.0 - static_cast<double>(acc.delta.solves) / static_cast<double>(acc.delta.queries)
            : 0.0;
    return {
        {"lang.frontend_ms", ms(t.inclusive("lang.frontend")), "ms"},
        {"il.compile_ms", ms(t.inclusive("il.compile")), "ms"},
        {"il.instructions", count(acc.delta.instructions), "count"},
        {"gen.explore_ms", ms(explore_ms), "ms"},
        {"gen.explore_self_ms", ms(t.self("gen.explore")), "ms"},
        {"gen.executions", count(acc.delta.executions), "count"},
        {"gen.tests", count(acc.counts.tests), "count"},
        {"solver.queries", count(acc.delta.queries), "count"},
        {"solver.solve_calls", count(acc.delta.solves), "count"},
        {"solver.solve_ms", ms(solve_ms), "ms"},
        {"solver.prepass_ms", ms(prepass_ms), "ms"},
        {"solver.served_ratio", served, "ratio"},
        {"solver.unknown", count(acc.delta.unknown), "count"},
        {"solver.disk_hits", count(acc.delta.disk_hits), "count"},
        {"solver.disk_misses", count(acc.delta.disk_misses), "count"},
        {"core.infer_ms", ms(prune_ms + post_ms), "ms"},
        {"core.prune_ms", ms(prune_ms), "ms"},
        {"core.post_prune_ms", ms(post_ms), "ms"},
        {"core.predicates_before", count(acc.counts.predicates_before), "count"},
        {"core.predicates_pruned", count(acc.counts.predicates_pruned), "count"},
        {"core.pruning_fallbacks", count(acc.counts.pruning_fallbacks), "count"},
        {"core.generalized_paths", count(acc.counts.generalized_paths), "count"},
        {"eval.strength_ms", ms(t.inclusive("eval.strength")), "ms"},
        {"eval.validation_tests", count(acc.counts.validation_tests), "count"},
        {"api.unit_ms_p50", median(engine_unit_ms), "ms"},
        {"api.unit_ms_max",
         engine_unit_ms.empty() ? 0.0
                                : *std::max_element(engine_unit_ms.begin(), engine_unit_ms.end()),
         "ms"},
        {"api.unaccounted_ms", ms(t.self("api.unit")), "ms"},
        {"serve.batches", serve.batches, "count"},
        {"serve.batch_size_mean", serve.batch_size_mean, "req/batch"},
        {"serve.response_bytes", serve.response_bytes, "bytes"},
        {"bench.trace_overhead_ms", trace_overhead_ms, "ms"},
    };
}

/// Prints the replay's self-time table and checks that it covers the
/// replay's wall time to within 5%.
void finish_layer_table(const LayerAccumulator& acc, CheckTally& tally) {
    perfbench::print_layer_table(acc.table, acc.replay_wall_ms,
                                 "[layers] self time over the traced replay");
    const double covered = acc.table.self_total_ms();
    const double gap = std::fabs(acc.replay_wall_ms - covered);
    tally.record("layer-table-covers-wall", gap <= 0.05 * acc.replay_wall_ms,
                 "self times sum to " + fmt_num(covered) + " ms of " +
                     fmt_num(acc.replay_wall_ms) + " ms wall");
}

std::string extra_layers_line(const std::vector<Metric>& extras) {
    return "{\"layers_extra\": " + metrics_json(extras) + "}";
}

// ---- corpus workloads -------------------------------------------------------

struct CorpusState {
    std::vector<api::InferRequest> requests;  ///< corpus order
    std::unique_ptr<api::InferenceEngine> engine;
    std::vector<std::string> recording_text;  ///< warm: rows of the recording pass
    double disk_load_ms = 0;
};

std::vector<api::InferRequest> corpus_requests(const api::ResolvedConfig& resolved,
                                               bool slice) {
    std::vector<api::InferRequest> requests;
    int index = 0;
    for (const eval::Subject& subject : eval::corpus()) {
        for (const eval::SubjectMethod& sm : subject.methods) {
            // The self-test slice: every tenth method of the corpus.
            if (slice && index++ % 10 != 0) continue;
            api::InferRequest request;
            request.subject = subject.name;
            request.suite = subject.suite;
            request.method_label = sm.name;
            request.source = sm.source;
            request.ground_truths = sm.ground_truths;
            request.config = resolved;
            requests.push_back(std::move(request));
        }
    }
    return requests;
}

/// FNV-1a over a file's bytes (0 when it cannot be read).
std::uint64_t file_hash(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::uint64_t h = 1469598103934665603ULL;
    char buf[65536];
    while (in.read(buf, sizeof buf) || in.gcount() > 0) {
        for (std::streamsize i = 0; i < in.gcount(); ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 1099511628211ULL;
        }
    }
    return h;
}

/// One set-up: corpus load and engine start; for the warm workload also the
/// recording pass, the image write and the guarded image load.
CorpusState corpus_setup(bool warm, bool slice, const std::string& image_path) {
    CorpusState st;
    eval::HarnessConfig config = eval::default_harness_config();
    config.jobs = 1;
    st.engine = std::make_unique<api::InferenceEngine>(api::InferenceEngine::Options{.jobs = 1});
    if (!warm) {
        st.requests = corpus_requests(api::resolve(config), slice);
        return st;
    }
    solver::DiskCacheBuilder builder(config.explore.solver_config);
    eval::HarnessConfig record_config = config;
    record_config.disk_recorder = &builder;
    for (const api::InferRequest& request :
         corpus_requests(api::resolve(record_config), slice)) {
        st.recording_text.push_back(
            perfbench::response_text(st.engine->infer(request), false));
    }
    std::string error;
    if (!builder.write_file(image_path, &error)) {
        std::fprintf(stderr, "cannot write %s: %s\n", image_path.c_str(), error.c_str());
        std::exit(1);
    }
    config.disk_cache_path = image_path;
    const std::int64_t load_us = counter("solver.disk_load_us");
    const bool metrics_were_on = support::metrics_enabled();
    support::MetricsRegistry::global().set_enabled(true);
    st.requests = corpus_requests(api::resolve(config), slice);
    support::MetricsRegistry::global().set_enabled(metrics_were_on);
    st.disk_load_ms = static_cast<double>(counter("solver.disk_load_us") - load_us) / 1e3;
    return st;
}

Outcome run_corpus(const Options& opt, bool warm, bool slice) {
    Outcome out;
    CheckTally& tally = out.tally;
    const std::string image_path =
        opt.out_dir + "/warm-" + std::to_string(::getpid()) + ".preinfer-cache";

    std::vector<double> setup_s;
    CorpusState st;
    std::uint64_t first_image = 0;
    const int setups = slice ? 1 : (warm ? kWarmSetups : kCorpusSetups);
    for (int i = 0; i < setups; ++i) {
        st = CorpusState{};  // each set-up starts from nothing
        const Clock::time_point t = Clock::now();
        st = corpus_setup(warm, slice, image_path);
        setup_s.push_back(ms_since(t) / 1e3);
        if (warm) {
            const std::uint64_t image = file_hash(image_path);
            if (i == 0) {
                first_image = image;
            } else {
                tally.record("image-deterministic", image == first_image,
                             "set-up " + std::to_string(i) + " recorded different bytes");
            }
        }
    }
    const std::size_t n = st.requests.size();
    if (warm) tally.record("disk-tier-loaded", st.requests.front().config.disk_cache != nullptr);

    // Seeded submission order; rows are compared per request, in corpus order.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    seeded_shuffle(order, opt.seed);

    std::vector<std::string> reference(n);  ///< rows of the first pass
    std::vector<double> pass_wall_ms;
    std::vector<double> unit_ms;
    std::vector<std::vector<double>> method_ms(n);  ///< per request, one per pass
    std::vector<double> traced_pass_ms;
    LayerAccumulator acc;
    perfbench::SpanRecorder recorder;
    int traced_passes = 0;

    const auto untraced_pass = [&] {
        const Clock::time_point pass_start = Clock::now();
        for (const std::size_t i : order) {
            const Clock::time_point t = Clock::now();
            const api::InferResponse response = st.engine->infer(st.requests[i]);
            const double ms = ms_since(t);
            unit_ms.push_back(ms);
            method_ms[i].push_back(ms);
            ++out.attempted;
            if (!response.ok) ++out.failed;
            std::string text = perfbench::response_text(response, true);
            if (reference[i].empty()) {
                reference[i] = std::move(text);
            } else {
                tally.record("pass-rows-identical", text == reference[i],
                             response.method_row.method);
            }
        }
        pass_wall_ms.push_back(ms_since(pass_start));
    };
    const auto traced_pass = [&] {
        support::MetricsRegistry::global().set_enabled(true);
        const std::size_t first_span = recorder.size();
        const CounterSnapshot before;
        const Clock::time_point pass_start = Clock::now();
        for (const std::size_t i : order) {
            recorder.set_request(static_cast<int>(i));
            const perfbench::ReplayResult r = perfbench::replay_unit(st.requests[i], recorder);
            acc.add_counts(r.counts);
            tally.record("replay-rows-equal",
                         perfbench::response_text(r.response, true) == reference[i],
                         r.response.method_row.method);
        }
        const double wall = ms_since(pass_start);
        acc.add_counters(before, CounterSnapshot{});
        support::MetricsRegistry::global().set_enabled(false);
        traced_pass_ms.push_back(wall);
        acc.replay_wall_ms += wall;
        acc.add_table(perfbench::layer_table(recorder.spans(), first_span, recorder.size()));
        ++traced_passes;
    };

    support::MetricsRegistry::global().set_enabled(false);
    const Clock::time_point run_start = Clock::now();
    do {
        untraced_pass();
        if (opt.trace) traced_pass();
    } while (ms_since(run_start) < opt.seconds * 1e3);

    // ---- checks, outside the timed region ----
    std::vector<eval::AclRow> rows;  // corpus order, from the check pass
    for (std::size_t i = 0; i < n; ++i) {
        api::InferRequest request = st.requests[i];
        request.keep_artifacts = true;
        const api::InferResponse response = st.engine->infer(request);
        tally.record("check-pass-rows-equal",
                     perfbench::response_text(response, true) == reference[i],
                     response.method_row.method);
        if (warm) {
            tally.record("warm-equals-recording",
                         perfbench::response_text(response, false) == st.recording_text[i],
                         response.method_row.method);
        }
        perfbench::check_inference(response, tally);
        for (const eval::AclRow& row : response.acls) rows.push_back(row);
    }
    perfbench::check_ground_truths(rows, tally);
    const perfbench::BothCounts both = perfbench::both_counts(rows);
    if (!slice) {
        // Table V's claim holds over the whole corpus, not over every slice.
        tally.record("table5-preinfer-both-at-least-baselines",
                     both.preinfer >= both.fixit && both.preinfer >= both.dysy,
                     "Both: PreInfer " + std::to_string(both.preinfer) + ", FixIt " +
                         std::to_string(both.fixit) + ", DySy " + std::to_string(both.dysy));
    }
    if (warm) std::remove(image_path.c_str());

    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(perfbench::preconditions_fingerprint(rows)));
    out.record = "\"methods\": " + std::to_string(n) + ", \"acls\": " +
                 std::to_string(rows.size()) + ", \"table5_both\": {\"preinfer\": " +
                 std::to_string(both.preinfer) + ", \"fixit\": " + std::to_string(both.fixit) +
                 ", \"dysy\": " + std::to_string(both.dysy) +
                 "}, \"preconditions_fingerprint\": \"" + fp +
                 "\", \"passes\": " + std::to_string(pass_wall_ms.size()) +
                 ", \"setups\": " + std::to_string(setup_s.size()) +
                 ", \"spread\": {\"setup_s\": " + spread_json(setup_s) +
                 ", \"wall_ms\": " + spread_json(pass_wall_ms) +
                 "}, \"pass_wall_ms\": " + samples_json(pass_wall_ms);

    if (!opt.trace) {
        double total_wall_ms = 0;
        for (const double w : pass_wall_ms) total_wall_ms += w;
        out.metrics = {
            {"setup_s", median(setup_s), "s"},
            {"wall_s", median(pass_wall_ms) / 1e3, "s"},
            {"unit_max_ms", slowest_unit_ms(method_ms), "ms"},
            {"latency_p50_ms", quantile(unit_ms, 0.50), "ms"},
            {"latency_p99_ms", quantile(unit_ms, 0.99), "ms"},
            {"throughput_rps", static_cast<double>(unit_ms.size()) / (total_wall_ms / 1e3),
             "req/s"},
            {"preinfer_both", static_cast<double>(both.preinfer), "count"},
            {"peak_rss_mb", peak_rss_mb(), "MiB"},
        };
        return out;
    }

    finish_layer_table(acc, tally);
    const double per = traced_passes;
    // Each traced pass ran right after an untraced one: compare in pairs.
    std::vector<double> pair_overhead_ms;
    for (std::size_t i = 0; i < traced_pass_ms.size(); ++i) {
        pair_overhead_ms.push_back(traced_pass_ms[i] - pass_wall_ms[i]);
    }
    const double overhead = median(pair_overhead_ms);
    out.metrics = layer_metrics(acc, per, unit_ms, overhead, ServeLayer{});
    std::vector<Metric> extras = {
        {"baselines.fixit_ms", acc.table.inclusive("baselines.fixit") / per, "ms"},
        {"baselines.dysy_ms", acc.table.inclusive("baselines.dysy") / per, "ms"},
        {"eval.validation_ms", acc.table.inclusive("eval.validation") / per, "ms"},
    };
    if (warm) extras.push_back({"solver.disk_load_ms", st.disk_load_ms, "ms"});
    std::printf("%s\n", extra_layers_line(extras).c_str());
    const std::string spans_path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                                   std::to_string(opt.seed) + ".jsonl";
    if (!recorder.write_jsonl(spans_path)) {
        std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    }
    return out;
}

// ---- serve-generated --------------------------------------------------------

std::string request_line(const std::string& id, const std::string& source) {
    std::string line = "{\"id\":\"";
    support::json_escape_to(line, id);
    line += "\",\"source\":\"";
    support::json_escape_to(line, source);
    line += "\"}";
    return line;
}

/// What a wire-default request becomes inside the server
/// (api/serve.cpp parse_request_line with no optional fields).
api::InferRequest direct_request(const std::string& source) {
    api::InferRequest request;
    request.subject = "serve";
    request.source = source;
    request.config.explore = api::make_explorer_config(api::PipelineLimits{});
    request.config.validate = false;
    request.config.run_fixit = false;
    request.config.run_dysy = false;
    return request;
}

/// The wire rendering of a response, minus id and wall time — the two
/// fields that legitimately differ between a served and a direct answer.
std::string expected_body(const api::InferResponse& r) {
    if (!r.ok) {
        std::string out = ",\"ok\":false,\"error\":\"";
        support::json_escape_to(out, r.error);
        return out + "\"}";
    }
    std::string out = ",\"ok\":true,\"method\":\"";
    support::json_escape_to(out, r.method_row.method);
    out += "\",\"tests\":" + std::to_string(r.method_row.tests) +
           ",\"acls\":" + std::to_string(r.method_row.acls) +
           ",\"cache_hits\":" + std::to_string(r.method_row.cache_hits) +
           ",\"cache_misses\":" + std::to_string(r.method_row.cache_misses) + ",\"results\":[";
    bool first = true;
    for (const eval::AclRow& row : r.acls) {
        if (!first) out += ',';
        first = false;
        out += "{\"acl\":\"" + std::string(core::exception_kind_name(row.acl.kind)) + "@" +
               std::to_string(row.acl.node_id) + "\",\"inferred\":";
        out += row.preinfer.inferred ? "true" : "false";
        if (row.preinfer.inferred) {
            out += ",\"psi\":\"";
            support::json_escape_to(out, row.preinfer.printed);
            out += "\",\"sufficient\":";
            out += row.preinfer.strength.sufficient ? "true" : "false";
            out += ",\"necessary\":";
            out += row.preinfer.strength.necessary ? "true" : "false";
        }
        out += '}';
    }
    return out + "]}";
}

/// Splits a served line into its id and its body with wall_ms removed.
bool split_served(const std::string& line, std::string& id, std::string& body) {
    const std::string head = "{\"id\":\"";
    if (line.compare(0, head.size(), head) != 0) return false;
    const std::size_t end = line.find('"', head.size());
    if (end == std::string::npos) return false;
    id = line.substr(head.size(), end - head.size());
    body = line.substr(end + 1);
    const std::size_t w = body.find(",\"wall_ms\":");
    if (w != std::string::npos) {
        const std::size_t stop = body.find(',', w + 1);
        if (stop == std::string::npos) return false;
        body.erase(w, stop - w);
    }
    return true;
}

struct ServeState {
    std::vector<std::string> pool;  ///< program sources
    std::unique_ptr<api::Server> server;
    std::unique_ptr<perfbench::WireClient> client;      ///< kConnections sockets
    std::unique_ptr<perfbench::WireClient> seq_client;  ///< one socket
    std::string socket_path;
};

ServeState serve_setup(int pool_size, const std::string& socket_path) {
    ServeState st;
    st.socket_path = socket_path;
    const fuzz::GenConfig gen = serve_gen_config();
    for (int i = 0; i < pool_size; ++i) {
        st.pool.push_back(fuzz::generate_source(
            fuzz::derive_seed(kPoolBase, static_cast<std::uint64_t>(i)), gen));
    }
    api::ServerOptions options;
    options.listen = socket_path;
    options.serve.jobs = kConnections;
    st.server = std::make_unique<api::Server>(options);
    std::string error;
    if (!st.server->start(&error)) {
        std::fprintf(stderr, "server start failed: %s\n", error.c_str());
        std::exit(1);
    }
    st.client = std::make_unique<perfbench::WireClient>(st.server->address(), kConnections);
    st.seq_client = std::make_unique<perfbench::WireClient>(st.server->address(), 1);
    for (const perfbench::WireClient* c : {st.client.get(), st.seq_client.get()}) {
        if (!c->ok()) {
            std::fprintf(stderr, "connect failed: %s\n", c->error().c_str());
            std::exit(1);
        }
    }
    return st;
}

void serve_teardown(ServeState& st) {
    st.client.reset();
    st.seq_client.reset();
    if (st.server) st.server->stop();
    st.server.reset();
    ::unlink(st.socket_path.c_str());
}

Outcome run_serve(const Options& opt, bool slice) {
    Outcome out;
    CheckTally& tally = out.tally;
    const int pool_size = slice ? 8 : kPoolSize;
    const int hot = slice ? 2 : kHotPrograms;
    // Relative path: sun_path is short, and the run stays inside its checkout.
    const std::string socket_path =
        "./" + opt.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

    std::vector<double> setup_s;
    ServeState st;
    for (int i = 0; i < (slice ? 1 : kServeSetups); ++i) {
        serve_teardown(st);
        const Clock::time_point t = Clock::now();
        st = serve_setup(pool_size, socket_path);
        setup_s.push_back(ms_since(t) / 1e3);
    }

    // One block: every pool program once, hot programs kHotRepeats more times.
    std::vector<int> block;
    for (int p = 0; p < pool_size; ++p) block.push_back(p);
    for (int r = 0; r < kHotRepeats; ++r) {
        for (int p = 0; p < hot; ++p) block.push_back(p);
    }
    // A request id is "<phase><round or block>-<position>-p<program>".
    const auto make_lines = [&](const std::vector<int>& programs, const std::string& prefix) {
        std::vector<std::string> lines;
        for (std::size_t k = 0; k < programs.size(); ++k) {
            lines.push_back(request_line(prefix + "-" + std::to_string(k) + "-p" +
                                             std::to_string(programs[k]),
                                         st.pool[static_cast<std::size_t>(programs[k])]));
        }
        return lines;
    };

    std::vector<double> open_latency;
    std::vector<double> open_lag;
    std::vector<double> closed_wall_ms;
    std::vector<double> seq_wall_ms;
    std::vector<double> seq_latency;
    /// Sequential-phase latencies per pool program, for the slowest unit.
    std::vector<std::vector<double>> program_ms(static_cast<std::size_t>(pool_size));
    std::int64_t batches = 0;
    std::int64_t batched_requests = 0;
    std::size_t response_bytes = 0;
    /// Distinct served answers keyed by program and body (id and wall time
    /// stripped), with how many responses gave each: the checks need no
    /// copy of every line, so the run's memory does not grow with its length.
    /// A line that does not parse is kept whole under program -1.
    std::map<std::pair<int, std::string>, std::int64_t> served;
    std::int64_t served_count = 0;
    bool io_ok = true;

    // Trace-mode state.
    api::InferenceEngine direct_engine(api::InferenceEngine::Options{.jobs = 1});
    LayerAccumulator acc;
    perfbench::SpanRecorder recorder;
    std::vector<double> direct_ms;
    std::vector<double> replay_ms;
    std::vector<double> overhead_ms;
    std::int64_t replayed = 0;

    // Files a phase's responses for the checks; false once a connection failed.
    const auto account = [&](const perfbench::PhaseResult& phase) {
        io_ok = io_ok && phase.io_ok;
        response_bytes += phase.response_bytes;
        for (const std::string& line : phase.responses) {
            std::string id;
            std::string body;
            const std::size_t pp =
                split_served(line, id, body) ? id.rfind("-p") : std::string::npos;
            if (pp == std::string::npos) {
                ++served[{-1, line}];
            } else {
                ++served[{std::atoi(id.c_str() + pp + 2), body}];
            }
        }
        served_count += static_cast<std::int64_t>(phase.responses.size());
        out.attempted += static_cast<std::int64_t>(phase.responses.size());
        return io_ok;
    };

    support::MetricsRegistry::global().set_enabled(false);
    const api::ServerStats stats_before = st.server->stats();
    // Round 0 warms up: its responses are checked, its times are not used.
    // The timed rounds then run back to back, and the open loop comes after
    // them: its idle gaps let the host's clock and scheduler state change,
    // and requests timed right after such a gap ran up to 1.5x faster.
    Clock::time_point run_start = Clock::now();
    int round = 0;
    do {
        // Each phase sends the same block in its own seeded order.
        const std::uint64_t round_seed =
            fuzz::derive_seed(opt.seed, static_cast<std::uint64_t>(round));
        std::vector<int> closed_programs = block;
        seeded_shuffle(closed_programs, round_seed ^ 0xc105edULL);
        std::vector<int> seq_programs = block;
        seeded_shuffle(seq_programs, round_seed ^ 0x5e90ULL);

        const api::ServerStats round_before = st.server->stats();
        const perfbench::PhaseResult closed =
            st.client->closed_loop(make_lines(closed_programs, "c" + std::to_string(round)));
        const perfbench::PhaseResult seq =
            st.seq_client->closed_loop(make_lines(seq_programs, "s" + std::to_string(round)));
        const api::ServerStats round_after = st.server->stats();
        if (!account(closed) || !account(seq)) break;
        if (round == 0) {
            run_start = Clock::now();
            ++round;
            continue;
        }
        closed_wall_ms.push_back(closed.wall_ms);
        seq_wall_ms.push_back(seq.wall_ms);
        seq_latency.insert(seq_latency.end(), seq.latency_ms.begin(), seq.latency_ms.end());
        for (std::size_t k = 0; k < seq_programs.size(); ++k) {
            program_ms[static_cast<std::size_t>(seq_programs[k])].push_back(seq.latency_ms[k]);
        }
        batches += round_after.batches - round_before.batches;
        batched_requests += round_after.requests - round_before.requests;

        if (opt.trace) {
            // Serve overhead: each sequential-phase request against a direct
            // engine call on the same source.
            for (std::size_t k = 0; k < seq_programs.size(); ++k) {
                const Clock::time_point t = Clock::now();
                static_cast<void>(direct_engine.infer(
                    direct_request(st.pool[static_cast<std::size_t>(seq_programs[k])])));
                const double d = ms_since(t);
                direct_ms.push_back(d);
                overhead_ms.push_back(seq.latency_ms[k] - d);
            }
            // Traced replay of the same block.
            support::MetricsRegistry::global().set_enabled(true);
            const std::size_t first_span = recorder.size();
            const CounterSnapshot before;
            const Clock::time_point replay_start = Clock::now();
            for (const int p : seq_programs) {
                recorder.set_request(static_cast<int>(replayed));
                const Clock::time_point t = Clock::now();
                const perfbench::ReplayResult r = perfbench::replay_unit(
                    direct_request(st.pool[static_cast<std::size_t>(p)]), recorder);
                replay_ms.push_back(ms_since(t));
                acc.add_counts(r.counts);
                ++replayed;
            }
            const double wall = ms_since(replay_start);
            acc.add_counters(before, CounterSnapshot{});
            support::MetricsRegistry::global().set_enabled(false);
            acc.replay_wall_ms += wall;
            acc.add_table(perfbench::layer_table(recorder.spans(), first_span, recorder.size()));
        }
        ++round;
    } while (round < 2 || ms_since(run_start) < opt.seconds * 1e3);
    const int timed_rounds = std::max(0, round - 1);
    for (int b = 0; io_ok && b < (slice ? 1 : kOpenBlocks); ++b) {
        std::vector<int> open_programs = block;
        seeded_shuffle(open_programs, fuzz::derive_seed(opt.seed ^ 0x0be7ULL,
                                                        static_cast<std::uint64_t>(b)));
        const perfbench::PhaseResult open = st.client->open_loop(
            make_lines(open_programs, "o" + std::to_string(b)), kOpenRatePerS);
        if (!account(open)) break;
        open_latency.insert(open_latency.end(), open.latency_ms.begin(), open.latency_ms.end());
        open_lag.insert(open_lag.end(), open.lag_ms.begin(), open.lag_ms.end());
    }
    const api::ServerStats stats_after = st.server->stats();
    tally.record("wire-io", io_ok, "a connection failed or stalled");

    // ---- checks, outside the timed region ----
    std::vector<std::string> expected(static_cast<std::size_t>(pool_size));
    std::vector<api::InferResponse> direct(static_cast<std::size_t>(pool_size));
    int both = 0;
    const eval::ValidationConfig validation_config = eval::default_harness_config().validation;
    for (int p = 0; p < pool_size; ++p) {
        api::InferRequest request = direct_request(st.pool[static_cast<std::size_t>(p)]);
        request.keep_artifacts = true;
        api::InferResponse& r = direct[static_cast<std::size_t>(p)];
        r = direct_engine.infer(request);
        tally.record("direct-ok", r.ok, "pool program " + std::to_string(p) + ": " + r.error);
        expected[static_cast<std::size_t>(p)] = expected_body(r);
        perfbench::check_inference(r, tally);
        if (!r.ok || r.artifacts == nullptr) continue;
        // Quality of the served preconditions, judged on a validation suite
        // built here, outside the path under test.
        const api::PipelineArtifacts& art = *r.artifacts;
        const gen::TestSuite validation = eval::build_validation_suite(
            *art.pool, art.method(), validation_config, &art.program);
        for (const api::PipelineArtifacts::AclInference& inf : art.inferences) {
            if (inf.result.inferred &&
                eval::evaluate_strength(art.method(), inf.acl, inf.result.precondition,
                                        validation)
                    .both()) {
                ++both;
            }
        }
        if (opt.trace) {
            // The replay must reproduce the engine's rows.
            const perfbench::ReplayResult rr = perfbench::replay_unit(
                direct_request(st.pool[static_cast<std::size_t>(p)]), recorder);
            tally.record("replay-rows-equal",
                         perfbench::response_text(rr.response, true) ==
                             perfbench::response_text(r, true),
                         "pool program " + std::to_string(p));
        }
    }
    for (const auto& [answer, count] : served) {
        const auto& [p, body] = answer;
        const bool equal = p >= 0 && p < pool_size && body == expected[static_cast<std::size_t>(p)];
        if (body.find("\"ok\":true") == std::string::npos) out.failed += count;
        for (std::int64_t k = 0; k < count; ++k) {
            tally.record("served-equals-direct", equal,
                         "program " + std::to_string(p) + ": " + body.substr(0, 160));
        }
    }
    tally.record("no-shed", stats_after.shed == stats_before.shed,
                 std::to_string(stats_after.shed - stats_before.shed) + " requests shed");
    const double served_requests = static_cast<double>(served_count);
    serve_teardown(st);

    const double repeated_share =
        1.0 - static_cast<double>(pool_size) / static_cast<double>(block.size());
    out.record = "\"pool\": " + std::to_string(pool_size) + ", \"block\": " +
                 std::to_string(block.size()) + ", \"repeated_share\": " +
                 fmt_num(repeated_share) + ", \"rounds\": " + std::to_string(timed_rounds) +
                 ", \"open_blocks\": " + std::to_string(open_latency.size() / block.size()) +
                 ", \"open_rate_per_s\": " + fmt_num(kOpenRatePerS) +
                 ", \"connections\": " + std::to_string(kConnections) +
                 ", \"generator_lag_ms\": {\"p50\": " + fmt_num(quantile(open_lag, 0.5)) +
                 ", \"p99\": " + fmt_num(quantile(open_lag, 0.99)) + ", \"max\": " +
                 fmt_num(open_lag.empty() ? 0.0
                                          : *std::max_element(open_lag.begin(), open_lag.end())) +
                 "}, \"open_latency_ms\": {\"p50\": " + fmt_num(quantile(open_latency, 0.5)) +
                 ", \"p90\": " + fmt_num(quantile(open_latency, 0.9)) +
                 ", \"p99\": " + fmt_num(quantile(open_latency, 0.99)) +
                 ", \"n\": " + std::to_string(open_latency.size()) +
                 "}, \"seq_latency_ms\": {\"p50\": " + fmt_num(quantile(seq_latency, 0.5)) +
                 ", \"p99\": " + fmt_num(quantile(seq_latency, 0.99)) +
                 "}, \"setups\": " + std::to_string(setup_s.size()) +
                 ", \"spread\": {\"setup_s\": " + spread_json(setup_s) +
                 ", \"closed_wall_ms\": " + spread_json(closed_wall_ms) +
                 ", \"seq_wall_ms\": " + spread_json(seq_wall_ms) + "}";

    if (!opt.trace) {
        // The gated latency quantiles are over the block's requests, each
        // timed as its program's median over the run's sequential passes:
        // a raw p99 is the run's few slowest samples, so it follows the
        // host's hiccups more than the program.
        std::vector<double> block_ms;
        for (const int p : block) {
            block_ms.push_back(median(program_ms[static_cast<std::size_t>(p)]));
        }
        out.metrics = {
            {"setup_s", median(setup_s), "s"},
            {"wall_s", median(seq_wall_ms) / 1e3, "s"},
            {"unit_max_ms", slowest_unit_ms(program_ms), "ms"},
            {"latency_p50_ms", quantile(block_ms, 0.50), "ms"},
            {"latency_p99_ms", quantile(block_ms, 0.99), "ms"},
            {"throughput_rps", static_cast<double>(block.size()) / (median(closed_wall_ms) / 1e3),
             "req/s"},
            {"preinfer_both", static_cast<double>(both), "count"},
            {"peak_rss_mb", peak_rss_mb(), "MiB"},
        };
        return out;
    }

    finish_layer_table(acc, tally);
    const double per = static_cast<double>(std::max<std::int64_t>(replayed, 1));
    ServeLayer serve;
    serve.batches = static_cast<double>(batches) / std::max(1, timed_rounds);
    serve.batch_size_mean =
        batches > 0 ? static_cast<double>(batched_requests) / static_cast<double>(batches) : 0.0;
    serve.response_bytes = served_requests > 0
                               ? static_cast<double>(response_bytes) / served_requests
                               : 0.0;
    out.metrics = layer_metrics(acc, per, direct_ms, mean(replay_ms) - mean(direct_ms), serve);
    std::printf("%s\n", extra_layers_line({
                                              {"serve.overhead_ms_p50", median(overhead_ms), "ms"},
                                              {"serve.generator_lag_ms",
                                               quantile(open_lag, 0.99), "ms"},
                                          })
                            .c_str());
    const std::string spans_path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                                   std::to_string(opt.seed) + ".jsonl";
    if (!recorder.write_jsonl(spans_path)) {
        std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    }
    return out;
}

// ---- command line -----------------------------------------------------------

bool parse_uint(const char* s, std::uint64_t& out) {
    if (s == nullptr || *s == '\0') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0' || *s == '-') return false;
    out = v;
    return true;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload corpus-cold|corpus-warm|serve-generated "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
                 "       perfbench --self-test [--out-dir DIR]\n");
    return 2;
}

Outcome run_workload(const Options& opt, bool slice) {
    if (opt.workload == "corpus-cold") return run_corpus(opt, false, slice);
    if (opt.workload == "corpus-warm") return run_corpus(opt, true, slice);
    return run_serve(opt, slice);
}

/// Short slices of every workload, traced and untraced, with every check.
int self_test(Options opt) {
    bool ok = true;
    for (const char* workload : {"corpus-cold", "corpus-warm", "serve-generated"}) {
        for (const bool trace : {false, true}) {
            opt.workload = workload;
            opt.trace = trace;
            opt.seconds = 0;  // one round
            Outcome out = run_workload(opt, true);
            std::printf("[self-test] %s trace=%d: %lld checks, %lld failed, %zu metrics\n",
                        workload, trace ? 1 : 0, static_cast<long long>(out.tally.attempted()),
                        static_cast<long long>(out.tally.failed()), out.metrics.size());
            out.tally.report_failures();
            ok = ok && out.tally.all_ok() && out.failed == 0 && out.tally.attempted() > 0;
        }
    }
    std::printf("[self-test] %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t v = 0;
        if (arg == "--self-test") {
            opt.self_test = true;
        } else if (arg == "--workload" && value != nullptr) {
            opt.workload = value;
            have_workload = opt.workload == "corpus-cold" || opt.workload == "corpus-warm" ||
                            opt.workload == "serve-generated";
            if (!have_workload) return usage();
            ++i;
        } else if (arg == "--seed" && parse_uint(value, v)) {
            opt.seed = v;
            have_seed = true;
            ++i;
        } else if (arg == "--seconds" && parse_uint(value, v) && v >= 1 && v <= 3600) {
            opt.seconds = static_cast<int>(v);
            have_seconds = true;
            ++i;
        } else if (arg == "--trace" && parse_uint(value, v) && v <= 1) {
            opt.trace = v == 1;
            have_trace = true;
            ++i;
        } else if (arg == "--out-dir" && value != nullptr) {
            opt.out_dir = value;
            ++i;
        } else {
            return usage();
        }
    }
    // Every thread of the run (the serve workload's server, sessions, engine
    // workers and load generator included) shares one core: hand-offs are
    // then local context switches rather than wake-ups of another virtual
    // CPU, whose delay on a shared host swings by milliseconds between runs.
    cpu_set_t one_core;
    CPU_ZERO(&one_core);
    const int pinned_cpu = std::max(0, sched_getcpu());
    CPU_SET(static_cast<unsigned>(pinned_cpu), &one_core);
    sched_setaffinity(0, sizeof one_core, &one_core);

    if (opt.self_test) return self_test(opt);
    if (!have_workload || !have_seed || !have_seconds || !have_trace) return usage();

    Outcome out = run_workload(opt, false);
    out.tally.report_failures();

    const char* commit = std::getenv("PERFBENCH_COMMIT");
    const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
    std::printf("{\"run_record\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
                "\"trace\": %d, \"cores\": %u, \"cpu\": %d, \"fixed_layout\": %s, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"commit\": \"%s\", \"source_digest\": \"%s\", \"operations\": %lld, "
                "\"checks\": %s, %s}}\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, std::thread::hardware_concurrency(), pinned_cpu,
                (personality(0xffffffff) & ADDR_NO_RANDOMIZE) != 0 ? "true" : "false",
                PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, commit != nullptr ? commit : "unknown",
                digest != nullptr ? digest : "unknown", static_cast<long long>(out.attempted),
                out.tally.json().c_str(), out.record.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                out.tally.all_ok() ? "true" : "false", static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed), metrics_json(out.metrics).c_str());
    std::fflush(stdout);
    return 0;
}
