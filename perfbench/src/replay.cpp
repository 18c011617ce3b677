#include "replay.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>

#include "src/baselines/dysy.h"
#include "src/baselines/fixit.h"
#include "src/core/complexity.h"
#include "src/core/pred_eval.h"
#include "src/core/preinfer.h"
#include "src/eval/range_form.h"
#include "src/eval/spec.h"
#include "src/exec/input.h"
#include "src/gen/oracle.h"
#include "src/lang/blocks.h"
#include "src/lang/parser.h"
#include "src/lang/type_check.h"
#include "src/solver/atom_index.h"
#include "src/solver/disk_cache.h"
#include "src/support/diagnostics.h"

namespace perfbench {

namespace {

using namespace preinfer;

bool contains_quantifier(const core::PredPtr& p) {
    if (p->is_quantifier()) return true;
    for (const core::PredPtr& k : p->kids) {
        if (contains_quantifier(k)) return true;
    }
    return false;
}

int acl_ordinal(const std::vector<core::AclId>& observed, core::AclId acl) {
    int ordinal = 0;
    for (const core::AclId& other : observed) {
        if (other == acl) return ordinal;
        if (other.kind == acl.kind) ++ordinal;
    }
    return -1;
}

void fill_outcome(eval::ApproachOutcome& out, const core::PredPtr& precondition,
                  const lang::Method& method, core::AclId acl,
                  const gen::TestSuite& validation, const core::PredPtr* ground_truth) {
    out.inferred = true;
    out.strength = eval::evaluate_strength(method, acl, precondition, validation);
    out.complexity = core::complexity(precondition);
    out.printed = core::to_string(precondition, method.param_names());
    if (ground_truth) {
        out.has_rel_complexity = true;
        out.rel_complexity = core::relative_complexity(precondition, *ground_truth);
    }
}

core::PredPtr conjunction_of(const std::vector<core::PathPredicate>& preds) {
    std::vector<core::PredPtr> kids;
    kids.reserve(preds.size());
    for (const core::PathPredicate& p : preds) kids.push_back(core::make_atom(p.expr));
    return core::make_and(std::move(kids));
}

bool admits_any(const core::PredPtr& pred, std::span<const sym::EvalEnv* const> envs) {
    return std::any_of(envs.begin(), envs.end(), [&pred](const sym::EvalEnv* env) {
        return core::eval_pred(pred, *env);
    });
}

/// core::PreInfer::infer with its two stages timed apart: Algorithm 1
/// pruning (`core.prune`, which includes the solver-assisted oracle's
/// witness solves) and everything after it (`core.post_prune`:
/// verify-and-restore, generalization, simplification).
core::InferenceResult infer_timed(sym::ExprPool& pool, const core::PreInferConfig& config,
                                  const core::TemplateRegistry& registry,
                                  core::WitnessOracle* oracle, core::AclId acl,
                                  std::vector<const core::PathCondition*> failing,
                                  std::vector<const core::PathCondition*> passing,
                                  std::span<const sym::EvalEnv* const> passing_envs,
                                  SpanRecorder& rec) {
    core::InferenceResult result;
    result.failing_paths = static_cast<int>(failing.size());
    if (failing.empty()) return result;

    std::unique_ptr<solver::Solver> equivalence_solver;
    if (config.semantic_template_matching) {
        equivalence_solver = std::make_unique<solver::Solver>(pool);
    }

    std::vector<core::ReducedPath> reduced;
    {
        ScopedSpan span(rec, "core.prune");
        core::PredicatePruner pruner(pool, acl, std::move(failing), std::move(passing),
                                     config.pruning, oracle);
        reduced = pruner.prune_all();
        result.pruning = pruner.stats();
    }

    ScopedSpan span(rec, "core.post_prune");
    std::vector<core::PredPtr> disjuncts;
    disjuncts.reserve(reduced.size());
    for (const core::ReducedPath& rp : reduced) {
        core::PredPtr stage1 = conjunction_of(rp.preds);
        core::ReducedPath effective = rp;
        if (config.verify_against_passing && admits_any(stage1, passing_envs)) {
            ++result.pruning_fallbacks;
            std::unordered_set<const sym::Expr*> keep;
            for (const core::PathPredicate& p : rp.preds) keep.insert(p.expr);
            bool repaired = false;
            for (const core::PathPredicate& back : rp.pruned) {
                keep.insert(back.expr);
                std::vector<core::PathPredicate> restored;
                for (const core::PathPredicate& p : rp.original->preds) {
                    if (keep.count(p.expr) > 0) restored.push_back(p);
                }
                core::PredPtr candidate = conjunction_of(restored);
                if (!admits_any(candidate, passing_envs)) {
                    stage1 = std::move(candidate);
                    effective.preds = std::move(restored);
                    repaired = true;
                    break;
                }
            }
            if (!repaired) {
                stage1 = conjunction_of(rp.original->preds);
                effective.preds = rp.original->preds;
            }
        }

        core::PredPtr chosen = stage1;
        if (config.generalization_enabled) {
            const core::GeneralizedPath gp =
                core::generalize(pool, registry, effective, equivalence_solver.get());
            if (gp.templates_applied > 0) {
                core::PredPtr stage2 = gp.to_pred();
                if (config.verify_against_passing && admits_any(stage2, passing_envs)) {
                    ++result.generalization_fallbacks;
                } else {
                    chosen = std::move(stage2);
                    ++result.generalized_paths;
                    for (const char* n : gp.template_names) result.template_uses.emplace_back(n);
                }
            }
        }
        disjuncts.push_back(std::move(chosen));
    }
    result.alpha = core::simplify(pool, core::make_or(std::move(disjuncts)));
    result.precondition = core::simplify(pool, core::negate(pool, result.alpha));
    result.inferred = true;
    return result;
}

}  // namespace

ReplayResult replay_unit(const api::InferRequest& request, SpanRecorder& rec) {
    const api::ResolvedConfig& config = request.config;
    ReplayResult out;
    api::InferResponse& response = out.response;
    ScopedSpan unit_span(rec, "api.unit");

    lang::Program prog;
    {
        ScopedSpan span(rec, "lang.frontend");
        try {
            prog = lang::parse_program(request.source);
            if (prog.methods.empty()) {
                response.error = "no methods in input";
                return out;
            }
            lang::type_check(prog);
            lang::label_blocks(prog);
        } catch (const support::FrontendError& e) {
            response.error = e.what();
            return out;
        }
    }
    const lang::Method* selected =
        request.method.empty() ? &prog.methods.front() : prog.find(request.method);
    if (selected == nullptr) {
        response.error = "no method named '" + request.method + "'";
        return out;
    }
    const lang::Method& method = *selected;
    const std::string& label =
        request.method_label.empty() ? method.name : request.method_label;

    auto pool_owner = std::make_unique<sym::ExprPool>();
    sym::ExprPool& pool = *pool_owner;
    std::optional<solver::SolveCache> solve_cache;
    if (config.use_cache) solve_cache.emplace(config.cache);
    solver::SolveCache* cache_ptr = solve_cache ? &*solve_cache : nullptr;
    if (cache_ptr != nullptr) {
        const std::uint64_t fingerprint =
            solver::config_fingerprint(config.explore.solver_config);
        if (config.disk_cache != nullptr &&
            config.disk_cache->config_fingerprint() == fingerprint) {
            cache_ptr->attach_disk(config.disk_cache.get());
        }
        if (config.disk_recorder != nullptr &&
            config.disk_recorder->config_fingerprint() == fingerprint) {
            cache_ptr->attach_recorder(config.disk_recorder);
        }
    }
    solver::AtomIndex atom_index(pool);

    // The Explorer constructor builds the execution backend, which for the
    // default IL backend is the IL compile of the program.
    std::optional<gen::Explorer> explorer;
    {
        ScopedSpan span(rec, "il.compile");
        explorer.emplace(pool, method, config.explore, &prog, cache_ptr, &atom_index);
    }
    gen::TestSuite suite;
    {
        ScopedSpan span(rec, "gen.explore");
        suite = explorer->explore();
    }
    const std::vector<core::AclId> observed = suite.failing_acls();
    out.counts.tests = static_cast<std::int64_t>(suite.tests.size());

    const bool validation_shares_cache =
        cache_ptr != nullptr &&
        config.validation.explore.solver_config == config.explore.solver_config;
    gen::Explorer::Stats validation_stats;
    gen::TestSuite validation;
    if (config.validate) {
        ScopedSpan span(rec, "eval.validation");
        validation = eval::build_validation_suite(
            pool, method, config.validation, &prog,
            validation_shares_cache ? cache_ptr : nullptr, &validation_stats, &atom_index);
    }
    out.counts.validation_tests = static_cast<std::int64_t>(validation.tests.size());

    eval::MethodRow& method_row = response.method_row;
    method_row.subject = request.subject;
    method_row.suite = request.suite;
    method_row.method = label;
    method_row.block_coverage = suite.block_coverage(method.num_blocks);
    method_row.tests = static_cast<int>(suite.tests.size());
    method_row.acls = static_cast<int>(observed.size());

    std::optional<gen::Explorer> oracle_explorer;
    {
        ScopedSpan span(rec, "il.compile");
        oracle_explorer.emplace(pool, method, config.explore, &prog, cache_ptr,
                                &atom_index);
    }
    gen::ExplorerOracle oracle(*oracle_explorer);
    const bool want_oracle =
        config.preinfer.pruning.mode == core::PruningMode::SolverAssisted;
    const core::TemplateRegistry standard = core::TemplateRegistry::standard();
    const core::TemplateRegistry& registry =
        config.registry != nullptr ? *config.registry : standard;

    std::vector<core::InferenceResult> inferences;
    for (const core::AclId acl : observed) {
        eval::AclRow row;
        row.subject = request.subject;
        row.suite = request.suite;
        row.method = label;
        row.acl = acl;
        const lang::Method* owner = prog.method_containing(acl.node_id);
        row.position = eval::classify_acl(owner ? *owner : method, acl.node_id);
        const gen::AclView view = gen::view_for(suite, acl);
        row.failing_tests = static_cast<int>(view.failing.size());
        row.passing_tests = static_cast<int>(view.passing.size());

        std::optional<core::PredPtr> ground_truth;
        const int ordinal = acl_ordinal(observed, acl);
        for (const eval::GroundTruthSpec& gt : request.ground_truths) {
            if (gt.kind != acl.kind || gt.ordinal != ordinal) continue;
            ScopedSpan span(rec, "eval.strength");
            const core::PredPtr parsed = eval::parse_spec(pool, method, gt.pred);
            row.has_ground_truth = true;
            row.ground_truth_quantified = contains_quantifier(parsed);
            row.gt_complexity = core::complexity(parsed);
            row.gt_printed = core::to_string(parsed, method.param_names());
            row.ground_truth_consistent =
                eval::evaluate_strength(method, acl, parsed, validation).both();
            ground_truth = parsed;
            break;
        }
        const core::PredPtr* gt_ptr = ground_truth ? &*ground_truth : nullptr;

        if (config.run_preinfer) {
            row.preinfer.attempted = true;
            std::vector<std::unique_ptr<exec::InputEvalEnv>> env_storage;
            std::vector<const sym::EvalEnv*> envs;
            env_storage.reserve(view.passing.size());
            for (const gen::Test* t : view.passing) {
                env_storage.push_back(std::make_unique<exec::InputEvalEnv>(method, t->input));
                envs.push_back(env_storage.back().get());
            }
            core::InferenceResult r =
                infer_timed(pool, config.preinfer, registry, want_oracle ? &oracle : nullptr,
                            acl, view.failing_pcs(), view.passing_pcs(), envs, rec);
            out.counts.predicates_before += r.pruning.predicates_before;
            out.counts.predicates_pruned += r.pruning.pruned;
            out.counts.pruning_fallbacks += r.pruning_fallbacks;
            out.counts.generalized_paths += r.generalized_paths;
            if (r.inferred) {
                ScopedSpan span(rec, "eval.strength");
                fill_outcome(row.preinfer, r.precondition, method, acl, validation, gt_ptr);
                row.preinfer.generalized_paths = r.generalized_paths;
                row.preinfer.pruning = r.pruning;
            }
            inferences.push_back(std::move(r));
        }
        if (config.run_fixit) {
            row.fixit.attempted = true;
            baselines::FixItResult r;
            {
                ScopedSpan span(rec, "baselines.fixit");
                r = baselines::fixit_infer(pool, view.failing_pcs());
            }
            if (r.inferred) {
                ScopedSpan span(rec, "eval.strength");
                fill_outcome(row.fixit, r.precondition, method, acl, validation, gt_ptr);
            }
        }
        if (config.run_dysy) {
            row.dysy.attempted = true;
            baselines::DySyResult r;
            {
                ScopedSpan span(rec, "baselines.dysy");
                r = baselines::dysy_infer(pool, view.passing_pcs());
            }
            if (r.inferred) {
                ScopedSpan span(rec, "eval.strength");
                fill_outcome(row.dysy, r.precondition, method, acl, validation, gt_ptr);
            }
        }
        response.acls.push_back(std::move(row));
    }

    if (config.run_preinfer) {
        ScopedSpan span(rec, "eval.range_form");
        for (std::size_t i = 0; i < response.acls.size(); ++i) {
            const core::InferenceResult& r = inferences[i];
            if (!r.inferred) continue;
            const eval::RangeForm form =
                eval::to_range_form(r.precondition, method.param_names());
            if (!form.is_range) continue;
            eval::AclRow& row = response.acls[i];
            row.preinfer_range_form = true;
            row.preinfer_range_complexity = form.complexity;
            row.preinfer_range_printed = form.printed;
        }
    }

    if (cache_ptr != nullptr) {
        method_row.cache_hits = cache_ptr->stats().hits;
        method_row.cache_misses = cache_ptr->stats().misses;
        method_row.cache_model_reuse = cache_ptr->stats().model_reuse;
        method_row.cache_unsat_subsumed = cache_ptr->stats().unsat_subsumed;
    }
    const auto phase_stats = [](const gen::Explorer::Stats& s) {
        return eval::MethodRow::PhaseCacheStats{s.cache_hits,        s.cache_misses,
                                                s.cache_model_reuse, s.cache_unsat_subsumed,
                                                s.disk_hits,         s.disk_misses};
    };
    method_row.cache_explore = phase_stats(explorer->stats());
    method_row.cache_oracle = phase_stats(oracle_explorer->stats());
    method_row.cache_validation = validation_shares_cache
                                      ? phase_stats(validation_stats)
                                      : eval::MethodRow::PhaseCacheStats{};
    method_row.prepass_unsat = explorer->stats().prepass_unsat +
                               oracle_explorer->stats().prepass_unsat +
                               validation_stats.prepass_unsat;
    method_row.prepass_sat = explorer->stats().prepass_sat +
                             oracle_explorer->stats().prepass_sat +
                             validation_stats.prepass_sat;
    method_row.disk_hits = explorer->stats().disk_hits + oracle_explorer->stats().disk_hits +
                           validation_stats.disk_hits;
    method_row.disk_misses = explorer->stats().disk_misses +
                             oracle_explorer->stats().disk_misses +
                             validation_stats.disk_misses;
    response.ok = true;
    return out;
}

}  // namespace perfbench
