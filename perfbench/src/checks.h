#pragma once

// Correctness checks on the outputs of each workload. They run outside the
// timed region and judge outputs against hand-written ground truths,
// concrete re-execution on the reference (AST) interpreter, and results
// computed by a second path (the engine against the traced replay, the
// server against a direct engine call, a warm run against its own cold
// recording) — never against a stored copy of earlier output.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/api/engine.h"

namespace perfbench {

/// Attempted/failed counts per named check, plus the first few failures.
class CheckTally {
public:
    void record(const std::string& check, bool ok, const std::string& detail = {});

    [[nodiscard]] bool all_ok() const;
    [[nodiscard]] std::int64_t attempted() const;
    [[nodiscard]] std::int64_t failed() const;
    /// `{"check":[attempted,failed],...}`
    [[nodiscard]] std::string json() const;
    /// Failure details to stderr (at most a few per check).
    void report_failures() const;

private:
    struct Entry {
        std::int64_t attempted = 0;
        std::int64_t failed = 0;
        std::vector<std::string> details;
    };
    std::map<std::string, Entry> entries_;
};

/// Every field of a row except wall time, as text: equal text means equal
/// rows.
[[nodiscard]] std::string row_text(const preinfer::eval::AclRow& row);
/// Method-row fields except wall time. Without `cache`, the solve-cache
/// attribution fields are left out too (a disk-tier run answers the same
/// queries from another tier, DESIGN.md §3h).
[[nodiscard]] std::string method_text(const preinfer::eval::MethodRow& row, bool cache);
/// All rows of a response, in order.
[[nodiscard]] std::string response_text(const preinfer::api::InferResponse& response,
                                        bool cache);

/// Per-ACL checks on one response built with keep_artifacts:
///  * `acl-has-precondition`: every ACL with failing tests gets a precondition;
///  * `failing-input-reaches-acl`: every failing input, re-executed on the
///    reference interpreter, aborts at its ACL;
///  * `alpha-covers-failing`: α is true on that input;
///  * `psi-excludes-failing`: ψ is not True on it (Theorem 1, docs/FUZZING.md).
void check_inference(const preinfer::api::InferResponse& response, CheckTally& tally);

/// `ground-truth-both`: every hand-written ground truth is sufficient and
/// necessary on the validation suite.
void check_ground_truths(const std::vector<preinfer::eval::AclRow>& rows, CheckTally& tally);

/// Table V Both counts (sufficient and necessary on the validation suite).
struct BothCounts {
    int preinfer = 0;
    int fixit = 0;
    int dysy = 0;
};
[[nodiscard]] BothCounts both_counts(const std::vector<preinfer::eval::AclRow>& rows);

/// FNV-1a over every approach's printed precondition and verdict, in row
/// order — the same fingerprint bench/bench_solver prints.
[[nodiscard]] std::uint64_t preconditions_fingerprint(
    const std::vector<preinfer::eval::AclRow>& rows);

}  // namespace perfbench
