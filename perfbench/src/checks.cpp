#include "checks.h"

#include <cstdio>

#include "src/core/pred_eval.h"
#include "src/exec/executor.h"
#include "src/exec/input.h"
#include "src/sym/expr_pool.h"

namespace perfbench {

using namespace preinfer;

namespace {

constexpr std::size_t kDetailsPerCheck = 3;

std::string acl_label(core::AclId acl) {
    return std::string(core::exception_kind_name(acl.kind)) + "@" +
           std::to_string(acl.node_id);
}

void append_outcome(std::string& out, const char* name, const eval::ApproachOutcome& o) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "|%s:%d%d%d%d c=%d rel=%d/%.17g gen=%d pr=%d,%d,%d,%d,%d,%d "
                  "st=%d/%d,%d/%d ",
                  name, o.attempted, o.inferred, o.strength.sufficient,
                  o.strength.necessary, o.complexity, o.has_rel_complexity,
                  o.rel_complexity, o.generalized_paths, o.pruning.predicates_before,
                  o.pruning.predicates_after, o.pruning.kept_c_depend,
                  o.pruning.kept_d_impact, o.pruning.pruned, o.pruning.oracle_calls,
                  o.strength.failing_blocked, o.strength.failing_total,
                  o.strength.passing_validated, o.strength.passing_total);
    out += buf;
    out += o.printed;
}

}  // namespace

void CheckTally::record(const std::string& check, bool ok, const std::string& detail) {
    Entry& e = entries_[check];
    ++e.attempted;
    if (!ok) {
        ++e.failed;
        if (e.details.size() < kDetailsPerCheck) e.details.push_back(detail);
    }
}

bool CheckTally::all_ok() const { return failed() == 0; }

std::int64_t CheckTally::attempted() const {
    std::int64_t n = 0;
    for (const auto& [name, e] : entries_) n += e.attempted;
    return n;
}

std::int64_t CheckTally::failed() const {
    std::int64_t n = 0;
    for (const auto& [name, e] : entries_) n += e.failed;
    return n;
}

std::string CheckTally::json() const {
    std::string out = "{";
    for (const auto& [name, e] : entries_) {
        if (out.size() > 1) out += ',';
        out += "\"" + name + "\":[" + std::to_string(e.attempted) + "," +
               std::to_string(e.failed) + "]";
    }
    return out + "}";
}

void CheckTally::report_failures() const {
    for (const auto& [name, e] : entries_) {
        if (e.failed == 0) continue;
        std::fprintf(stderr, "check %s: %lld of %lld failed\n", name.c_str(),
                     static_cast<long long>(e.failed), static_cast<long long>(e.attempted));
        for (const std::string& d : e.details) std::fprintf(stderr, "  %s\n", d.c_str());
    }
}

std::string row_text(const eval::AclRow& row) {
    std::string out = row.subject + "|" + row.suite + "|" + row.method + "|" +
                      acl_label(row.acl) + "|" + eval::loop_position_name(row.position);
    char buf[96];
    std::snprintf(buf, sizeof buf, "|f=%d p=%d gt=%d%d%d c=%d|", row.failing_tests,
                  row.passing_tests, row.has_ground_truth, row.ground_truth_quantified,
                  row.ground_truth_consistent, row.gt_complexity);
    out += buf;
    out += row.gt_printed;
    append_outcome(out, "pi", row.preinfer);
    append_outcome(out, "fx", row.fixit);
    append_outcome(out, "dy", row.dysy);
    std::snprintf(buf, sizeof buf, "|range=%d c=%d ", row.preinfer_range_form,
                  row.preinfer_range_complexity);
    out += buf;
    out += row.preinfer_range_printed;
    return out;
}

std::string method_text(const eval::MethodRow& row, bool cache) {
    char buf[320];
    std::snprintf(buf, sizeof buf, "|cov=%.17g t=%d a=%d", row.block_coverage, row.tests,
                  row.acls);
    std::string out = row.subject + "|" + row.suite + "|" + row.method + buf;
    if (!cache) return out;
    const auto phase = [&buf](const eval::MethodRow::PhaseCacheStats& p) {
        std::snprintf(buf, sizeof buf, "|%lld,%lld,%lld,%lld,%lld,%lld",
                      static_cast<long long>(p.hits), static_cast<long long>(p.misses),
                      static_cast<long long>(p.model_reuse),
                      static_cast<long long>(p.unsat_subsumed),
                      static_cast<long long>(p.disk_hits),
                      static_cast<long long>(p.disk_misses));
        return std::string(buf);
    };
    std::snprintf(buf, sizeof buf, "|cache=%lld,%lld,%lld,%lld pre=%lld,%lld disk=%lld,%lld",
                  static_cast<long long>(row.cache_hits),
                  static_cast<long long>(row.cache_misses),
                  static_cast<long long>(row.cache_model_reuse),
                  static_cast<long long>(row.cache_unsat_subsumed),
                  static_cast<long long>(row.prepass_unsat),
                  static_cast<long long>(row.prepass_sat),
                  static_cast<long long>(row.disk_hits),
                  static_cast<long long>(row.disk_misses));
    out += buf;
    out += phase(row.cache_explore) + phase(row.cache_oracle) + phase(row.cache_validation);
    return out;
}

std::string response_text(const api::InferResponse& response, bool cache) {
    if (!response.ok) return "error:" + response.error;
    std::string out = method_text(response.method_row, cache);
    for (const eval::AclRow& row : response.acls) {
        out += '\n';
        out += row_text(row);
    }
    return out;
}

void check_inference(const api::InferResponse& response, CheckTally& tally) {
    for (const eval::AclRow& row : response.acls) {
        tally.record("acl-has-precondition", row.failing_tests == 0 || row.preinfer.inferred,
                     row.subject + "/" + row.method + " " + acl_label(row.acl));
    }
    const api::PipelineArtifacts* art = response.artifacts.get();
    if (art == nullptr) return;
    const lang::Method& method = art->method();
    // Re-execution runs on its own pool and on the AST walker, the
    // reference interpreter, apart from the IL path that built the suite.
    sym::ExprPool scratch;
    const std::unique_ptr<exec::Executor> reference =
        exec::make_executor(exec::Backend::Ast, scratch, method,
                            art->explore_config.exec_limits, &art->program);
    for (const api::PipelineArtifacts::AclInference& inf : art->inferences) {
        if (!inf.result.inferred) continue;  // counted by acl-has-precondition
        const gen::AclView view = gen::view_for(art->suite, inf.acl);
        const std::string where = response.method_row.subject + "/" +
                                  response.method_row.method + " " + acl_label(inf.acl);
        for (const gen::Test* t : view.failing) {
            const exec::RunResult rerun = reference->run(t->input);
            tally.record("failing-input-reaches-acl",
                         rerun.outcome.failing() && rerun.outcome.acl == inf.acl,
                         where + " input " + t->input.to_string(method));
            const exec::InputEvalEnv env(method, t->input);
            tally.record("alpha-covers-failing", core::eval_pred(inf.result.alpha, env),
                         where + " input " + t->input.to_string(method));
            tally.record("psi-excludes-failing",
                         core::eval_pred_3v(inf.result.precondition, env) != core::Tri::True,
                         where + " input " + t->input.to_string(method));
        }
    }
}

void check_ground_truths(const std::vector<eval::AclRow>& rows, CheckTally& tally) {
    for (const eval::AclRow& row : rows) {
        if (!row.has_ground_truth) continue;
        tally.record("ground-truth-both", row.ground_truth_consistent,
                     row.subject + "/" + row.method + " " + acl_label(row.acl) + ": " +
                         row.gt_printed);
    }
}

BothCounts both_counts(const std::vector<eval::AclRow>& rows) {
    BothCounts c;
    for (const eval::AclRow& row : rows) {
        c.preinfer += row.preinfer.correct() ? 1 : 0;
        c.fixit += row.fixit.correct() ? 1 : 0;
        c.dysy += row.dysy.correct() ? 1 : 0;
    }
    return c;
}

std::uint64_t preconditions_fingerprint(const std::vector<eval::AclRow>& rows) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](const std::string& s) {
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
        h ^= 0xffU;
        h *= 1099511628211ULL;
    };
    for (const eval::AclRow& row : rows) {
        mix(row.subject);
        mix(row.method);
        for (const eval::ApproachOutcome* o : {&row.preinfer, &row.fixit, &row.dysy}) {
            mix(o->inferred ? o->printed : std::string("<none>"));
            mix(std::to_string(
                o->inferred ? (o->sufficient() ? 2 : 0) + (o->necessary() ? 1 : 0) : -1));
        }
    }
    return h;
}

}  // namespace perfbench
