// Output checks of the end-to-end benchmark.
//
// The checker recounts from the matrix rows and compares exact integers;
// it does not call rules/verifier or the baselines, so a bug shared by
// the miners and the library's own verifier still shows here. Every
// check appends human-readable failures to a CheckReport; an empty
// report means the outputs are correct.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "matrix/binary_matrix.h"
#include "rules/rule.h"
#include "rules/rule_index.h"

namespace perfbench {

using dmc::BinaryMatrix;
using dmc::ColumnId;
using dmc::ImplicationRule;
using dmc::SimilarityPair;

/// Failures found so far; empty means every check passed.
struct CheckReport {
  std::vector<std::string> failures;
  void Fail(std::string message);
  bool ok() const { return failures.empty(); }
};

/// An exact rational threshold num/den, e.g. 7/10 for 0.70.
struct Ratio {
  uint64_t num = 7;
  uint64_t den = 10;
};

/// Columns the recount and index checks look at: the `densest` densest
/// columns, up to `boundary` columns holding a rule (or pair) exactly at
/// the threshold, up to `boundary` columns whose 1-count makes the
/// threshold an integer, and `random` further seeded picks among the
/// columns that have any 1s. Sorted, distinct.
std::vector<ColumnId> SampleColumns(const BinaryMatrix& m,
                                    const std::vector<ImplicationRule>& rules,
                                    const std::vector<SimilarityPair>& pairs,
                                    Ratio threshold, uint64_t seed,
                                    size_t densest, size_t boundary,
                                    size_t random);

/// Recounts co-occurrences of every sampled antecedent straight from the
/// rows and requires the rules with that antecedent in the canonical
/// (lhs, rhs)-sorted `rules` to be exactly the sparser-to-denser
/// consequents j with den * hits >= num * ones, with exact counts.
void CheckImplicationRecount(const BinaryMatrix& m, Ratio minconf,
                             const std::vector<ImplicationRule>& rules,
                             const std::vector<ColumnId>& sample,
                             CheckReport* report);

/// Same for similarity: every pair touching a sampled column must be
/// present, in canonical orientation, with exact counts, iff
/// den * inter >= num * (ones_a + ones_b - inter).
void CheckSimilarityRecount(const BinaryMatrix& m, Ratio minsim,
                            const std::vector<SimilarityPair>& pairs,
                            const std::vector<ColumnId>& sample,
                            CheckReport* report);

/// Byte-identity of two results of different mining paths.
template <typename T>
void CheckIdentical(const std::string& what, const std::vector<T>& expected,
                    const std::vector<T>& actual, CheckReport* report) {
  if (expected.size() != actual.size()) {
    report->Fail(what + ": " + std::to_string(actual.size()) +
                 " entries, expected " + std::to_string(expected.size()));
    return;
  }
  if (!expected.empty() &&
      std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(T)) != 0) {
    report->Fail(what + ": same size but different bytes");
  }
}

/// What a query reply answered.
enum class QueryKind { kAntecedent, kConsequent, kTopK };

/// Checks one query reply on its own: only rules for the queried column
/// (any column for kTopK), each at or above `minconf` by its own counts,
/// in non-increasing exact confidence with ties in ascending (lhs, rhs).
void CheckReply(QueryKind kind, ColumnId column, Ratio minconf,
                const std::vector<ImplicationRule>& reply,
                CheckReport* report);

/// Generations seen on one connection must never go backwards.
void CheckGeneration(uint64_t previous, uint64_t current,
                     CheckReport* report);

/// Index properties against the canonical rule set it was built from:
/// antecedent and consequent queries for every sampled column return
/// exactly the matching rules in confidence order, and TopK's first rule
/// has the largest confidence of all rules.
void CheckIndex(const dmc::RuleIndexSnapshot& index,
                const std::vector<ImplicationRule>& rules, Ratio minconf,
                const std::vector<ColumnId>& sample, CheckReport* report);

/// Every rule of the snapshot, sorted by (lhs, rhs).
std::vector<ImplicationRule> SnapshotRules(
    const dmc::RuleIndexSnapshot& index);

/// Negative self-test: every check above must pass on a correct result
/// and fail on a perturbed one (a dropped rule, a rule below the
/// threshold, a flipped count, a misordered reply, a backwards
/// generation). Prints one line per case; returns the number of cases
/// that did not behave.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
