#pragma once

// The traced replay: one inference request run step by step from the
// benchmark, with a span around every call into a layer's public functions.
// It mirrors api::InferenceEngine::run_unit (src/api/engine.cpp) and
// core::PreInfer::infer (src/core/preinfer.cpp) call for call, so that the
// pruning stage and the work after it can be timed apart without
// instrumenting the program. Every traced run checks that the replay yields
// the same rows as the engine on the same requests; a change to either
// function that the replay does not follow shows up there as a failed
// check, not as silently wrong timings.

#include "spans.h"
#include "src/api/engine.h"

namespace perfbench {

/// Work counts of one replayed request that the rows do not carry.
struct ReplayCounts {
    std::int64_t tests = 0;             ///< inference-suite size
    std::int64_t validation_tests = 0;  ///< validation-suite size
    std::int64_t predicates_before = 0;
    std::int64_t predicates_pruned = 0;
    std::int64_t pruning_fallbacks = 0;
    std::int64_t generalized_paths = 0;
};

struct ReplayResult {
    preinfer::api::InferResponse response;  ///< rows as the engine returns them
    ReplayCounts counts;
};

/// Runs `request` through the pipeline under spans recorded in `recorder`:
/// one `api.unit` root with `lang.frontend`, `il.compile`, `gen.explore`,
/// `eval.validation`, `core.prune`, `core.post_prune`, `baselines.fixit`,
/// `baselines.dysy`, `eval.strength` and `eval.range_form` children.
[[nodiscard]] ReplayResult replay_unit(const preinfer::api::InferRequest& request,
                                       SpanRecorder& recorder);

}  // namespace perfbench
