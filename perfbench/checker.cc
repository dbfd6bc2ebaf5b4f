#include "checker.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "core/dmc_imp.h"
#include "core/dmc_sim.h"
#include "datagen/news_gen.h"
#include "util/random.h"

namespace perfbench {
namespace {

std::string RuleText(const ImplicationRule& r) {
  return "c" + std::to_string(r.lhs) + "=>c" + std::to_string(r.rhs) +
         " ones=" + std::to_string(r.lhs_ones) +
         " misses=" + std::to_string(r.misses);
}

std::string PairText(const SimilarityPair& p) {
  return "c" + std::to_string(p.a) + "~c" + std::to_string(p.b) +
         " ones=" + std::to_string(p.ones_a) + "/" + std::to_string(p.ones_b) +
         " inter=" + std::to_string(p.intersection);
}

/// The paper's candidate order, restated here: sparser column first,
/// ties by id.
bool Sparser(uint64_t ones_i, ColumnId i, uint64_t ones_j, ColumnId j) {
  return ones_i < ones_j || (ones_i == ones_j && i < j);
}

bool ImpHolds(Ratio t, uint64_t hits, uint64_t ones) {
  return ones > 0 && t.den * hits >= t.num * ones;
}

bool SimHolds(Ratio t, uint64_t inter, uint64_t ones_a, uint64_t ones_b) {
  const uint64_t uni = ones_a + ones_b - inter;
  return uni > 0 && t.den * inter >= t.num * uni;
}

/// -1, 0, +1 as a's exact confidence is below, equal to, above b's.
int CompareConfidence(const ImplicationRule& a, const ImplicationRule& b) {
  const uint64_t lhs = uint64_t{a.lhs_ones - a.misses} * b.lhs_ones;
  const uint64_t rhs = uint64_t{b.lhs_ones - b.misses} * a.lhs_ones;
  return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
}

/// Column 1-counts and, for each sampled column, its co-occurrence
/// counts with every column, counted straight from the rows.
struct Recount {
  std::vector<uint64_t> ones;
  std::vector<std::vector<uint32_t>> hits;  // [sample index][column]
};

Recount CountFromRows(const BinaryMatrix& m,
                      const std::vector<ColumnId>& sample) {
  Recount rc;
  rc.ones.assign(m.num_columns(), 0);
  rc.hits.assign(sample.size(), std::vector<uint32_t>(m.num_columns(), 0));
  std::vector<int> slot(m.num_columns(), -1);
  for (size_t s = 0; s < sample.size(); ++s) slot[sample[s]] = int(s);
  for (dmc::RowId r = 0; r < m.num_rows(); ++r) {
    const auto row = m.Row(r);
    for (ColumnId c : row) {
      ++rc.ones[c];
      if (slot[c] < 0) continue;
      std::vector<uint32_t>& h = rc.hits[size_t(slot[c])];
      for (ColumnId j : row) ++h[j];
    }
  }
  return rc;
}

}  // namespace

void CheckReport::Fail(std::string message) {
  // The first few failures say enough; a broken run can produce
  // millions.
  if (failures.size() < 20) failures.push_back(std::move(message));
}

std::vector<ColumnId> SampleColumns(const BinaryMatrix& m,
                                    const std::vector<ImplicationRule>& rules,
                                    const std::vector<SimilarityPair>& pairs,
                                    Ratio threshold, uint64_t seed,
                                    size_t densest, size_t boundary,
                                    size_t random) {
  const std::vector<uint32_t>& ones = m.column_ones();
  std::vector<ColumnId> live;
  for (ColumnId c = 0; c < m.num_columns(); ++c) {
    if (ones[c] > 0) live.push_back(c);
  }
  std::vector<ColumnId> out;
  std::vector<ColumnId> by_density = live;
  std::stable_sort(by_density.begin(), by_density.end(),
                   [&](ColumnId a, ColumnId b) { return ones[a] > ones[b]; });
  for (size_t i = 0; i < std::min(densest, by_density.size()); ++i) {
    out.push_back(by_density[i]);
  }
  size_t at_boundary = 0;
  for (const ImplicationRule& r : rules) {
    if (at_boundary >= boundary) break;
    if (threshold.den * r.hits() == threshold.num * r.lhs_ones) {
      out.push_back(r.lhs);
      ++at_boundary;
    }
  }
  at_boundary = 0;
  for (const SimilarityPair& p : pairs) {
    if (at_boundary >= boundary) break;
    const uint64_t uni = uint64_t{p.ones_a} + p.ones_b - p.intersection;
    if (threshold.den * p.intersection == threshold.num * uni) {
      out.push_back(p.a);
      out.push_back(p.b);
      ++at_boundary;
    }
  }
  size_t integral = 0;
  for (ColumnId c : live) {
    if (integral >= boundary) break;
    if ((uint64_t{ones[c]} * threshold.num) % threshold.den == 0) {
      out.push_back(c);
      ++integral;
    }
  }
  dmc::Rng rng(seed ^ 0x5a3c0f1e2d4b6a79ULL);
  for (size_t i = 0; i < random && !live.empty(); ++i) {
    out.push_back(live[rng.Uniform(live.size())]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void CheckImplicationRecount(const BinaryMatrix& m, Ratio minconf,
                             const std::vector<ImplicationRule>& rules,
                             const std::vector<ColumnId>& sample,
                             CheckReport* report) {
  const Recount rc = CountFromRows(m, sample);
  for (size_t s = 0; s < sample.size(); ++s) {
    const ColumnId a = sample[s];
    const auto lo = std::lower_bound(
        rules.begin(), rules.end(), a,
        [](const ImplicationRule& r, ColumnId c) { return r.lhs < c; });
    auto it = lo;
    for (ColumnId j = 0; j < m.num_columns(); ++j) {
      const bool expected = j != a && Sparser(rc.ones[a], a, rc.ones[j], j) &&
                            ImpHolds(minconf, rc.hits[s][j], rc.ones[a]);
      const bool present = it != rules.end() && it->lhs == a && it->rhs == j;
      if (expected && !present) {
        report->Fail("recount: missing rule c" + std::to_string(a) + "=>c" +
                     std::to_string(j) + " (hits " +
                     std::to_string(rc.hits[s][j]) + " of " +
                     std::to_string(rc.ones[a]) + ")");
      } else if (present && !expected) {
        report->Fail("recount: rule not at threshold: " + RuleText(*it) +
                     " (recounted hits " + std::to_string(rc.hits[s][j]) +
                     ")");
      } else if (present && (it->lhs_ones != rc.ones[a] ||
                             it->misses != rc.ones[a] - rc.hits[s][j])) {
        report->Fail("recount: wrong counts on " + RuleText(*it) +
                     " (recounted ones " + std::to_string(rc.ones[a]) +
                     ", hits " + std::to_string(rc.hits[s][j]) + ")");
      }
      if (present) ++it;
      // Rules out of canonical order (or past the last column) would be
      // skipped by the walk above; anything left over is one of them.
    }
    if (it != rules.end() && it->lhs == a) {
      report->Fail("recount: unexpected rule " + RuleText(*it));
    }
  }
}

void CheckSimilarityRecount(const BinaryMatrix& m, Ratio minsim,
                            const std::vector<SimilarityPair>& pairs,
                            const std::vector<ColumnId>& sample,
                            CheckReport* report) {
  const Recount rc = CountFromRows(m, sample);
  std::vector<int> slot(m.num_columns(), -1);
  for (size_t s = 0; s < sample.size(); ++s) slot[sample[s]] = int(s);
  // The mined pairs touching each sampled column, keyed by the partner.
  std::vector<std::vector<std::pair<ColumnId, const SimilarityPair*>>> mined(
      sample.size());
  for (const SimilarityPair& p : pairs) {
    if (p.a < m.num_columns() && slot[p.a] >= 0) {
      mined[size_t(slot[p.a])].emplace_back(p.b, &p);
    }
    if (p.b < m.num_columns() && slot[p.b] >= 0 && p.b != p.a) {
      mined[size_t(slot[p.b])].emplace_back(p.a, &p);
    }
  }
  for (size_t s = 0; s < sample.size(); ++s) {
    const ColumnId a = sample[s];
    auto& got = mined[s];
    std::sort(got.begin(), got.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    size_t k = 0;
    for (ColumnId j = 0; j < m.num_columns(); ++j) {
      const bool expected =
          j != a && rc.ones[a] > 0 && rc.ones[j] > 0 &&
          SimHolds(minsim, rc.hits[s][j], rc.ones[a], rc.ones[j]);
      const bool present = k < got.size() && got[k].first == j;
      if (expected && !present) {
        report->Fail("recount: missing pair c" + std::to_string(a) + "~c" +
                     std::to_string(j));
        continue;
      }
      if (!present) continue;
      const SimilarityPair& p = *got[k].second;
      ++k;
      if (!expected) {
        report->Fail("recount: pair not at threshold: " + PairText(p));
        continue;
      }
      const bool a_first = Sparser(rc.ones[a], a, rc.ones[j], j);
      const ColumnId first = a_first ? a : j;
      const ColumnId second = a_first ? j : a;
      if (p.a != first || p.b != second || p.ones_a != rc.ones[first] ||
          p.ones_b != rc.ones[second] || p.intersection != rc.hits[s][j]) {
        report->Fail("recount: wrong pair " + PairText(p) +
                     " (recounted inter " + std::to_string(rc.hits[s][j]) +
                     ")");
      }
    }
    if (k != got.size()) {
      report->Fail("recount: duplicate or out-of-range pair " +
                   PairText(*got[k].second));
    }
  }
}

void CheckReply(QueryKind kind, ColumnId column, Ratio minconf,
                const std::vector<ImplicationRule>& reply,
                CheckReport* report) {
  for (size_t i = 0; i < reply.size(); ++i) {
    const ImplicationRule& r = reply[i];
    if ((kind == QueryKind::kAntecedent && r.lhs != column) ||
        (kind == QueryKind::kConsequent && r.rhs != column)) {
      report->Fail("reply for c" + std::to_string(column) +
                   " holds another column's rule " + RuleText(r));
    }
    if (r.misses > r.lhs_ones || !ImpHolds(minconf, r.hits(), r.lhs_ones)) {
      report->Fail("reply holds a rule below minconf: " + RuleText(r));
    }
    if (i == 0) continue;
    const ImplicationRule& prev = reply[i - 1];
    const int cmp = CompareConfidence(prev, r);
    if (cmp < 0 ||
        (cmp == 0 && std::pair(prev.lhs, prev.rhs) >= std::pair(r.lhs, r.rhs))) {
      report->Fail("reply out of confidence order at " + RuleText(r));
    }
  }
}

void CheckGeneration(uint64_t previous, uint64_t current,
                     CheckReport* report) {
  if (current < previous) {
    report->Fail("generation went backwards: " + std::to_string(previous) +
                 " -> " + std::to_string(current));
  }
}

void CheckIndex(const dmc::RuleIndexSnapshot& index,
                const std::vector<ImplicationRule>& rules, Ratio minconf,
                const std::vector<ColumnId>& sample, CheckReport* report) {
  if (index.size() != rules.size()) {
    report->Fail("index holds " + std::to_string(index.size()) +
                 " rules, expected " + std::to_string(rules.size()));
  }
  ColumnId max_column = 0;
  for (const ImplicationRule& r : rules) {
    max_column = std::max({max_column, r.lhs, r.rhs});
  }
  for (ColumnId c : sample) max_column = std::max(max_column, c);
  std::vector<int> slot(size_t{max_column} + 1, -1);
  for (size_t s = 0; s < sample.size(); ++s) slot[sample[s]] = int(s);
  std::vector<std::vector<ImplicationRule>> by_rhs(sample.size());
  const ImplicationRule* best = nullptr;
  for (const ImplicationRule& r : rules) {
    if (slot[r.rhs] >= 0) by_rhs[size_t(slot[r.rhs])].push_back(r);
    if (best == nullptr || CompareConfidence(r, *best) > 0) best = &r;
  }
  auto same_set = [&](const char* what, ColumnId c,
                      std::vector<ImplicationRule> got,
                      std::vector<ImplicationRule> want) {
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      report->Fail(std::string("index: ") + what + " c" + std::to_string(c) +
                   " returned " + std::to_string(got.size()) +
                   " rules, expected " + std::to_string(want.size()));
    }
  };
  for (size_t s = 0; s < sample.size(); ++s) {
    const ColumnId c = sample[s];
    const auto lo = std::lower_bound(
        rules.begin(), rules.end(), c,
        [](const ImplicationRule& r, ColumnId col) { return r.lhs < col; });
    auto hi = lo;
    while (hi != rules.end() && hi->lhs == c) ++hi;
    const std::vector<ImplicationRule> lhs_reply = index.QueryByAntecedent(c);
    CheckReply(QueryKind::kAntecedent, c, minconf, lhs_reply, report);
    same_set("antecedent", c, lhs_reply, {lo, hi});
    const std::vector<ImplicationRule> rhs_reply = index.QueryByConsequent(c);
    CheckReply(QueryKind::kConsequent, c, minconf, rhs_reply, report);
    same_set("consequent", c, rhs_reply, by_rhs[s]);
  }
  const std::vector<ImplicationRule> top = index.TopK(16);
  CheckReply(QueryKind::kTopK, 0, minconf, top, report);
  if (best != nullptr &&
      (top.empty() || CompareConfidence(top.front(), *best) != 0)) {
    report->Fail("index: TopK's first rule is not of the largest confidence");
  }
}

std::vector<ImplicationRule> SnapshotRules(
    const dmc::RuleIndexSnapshot& index) {
  std::vector<ImplicationRule> all = index.TopK(0);
  std::sort(all.begin(), all.end());
  return all;
}

int RunSelfTest() {
  // A small news corpus: its collocations give similarity pairs, its
  // entity words implication rules.
  dmc::NewsOptions o;
  o.num_docs = 1500;
  o.num_topics = 6;
  o.background_vocab = 300;
  o.background_words_max = 30;
  o.seed = 7;
  const BinaryMatrix m = dmc::GenerateNews(o).matrix;
  const Ratio t;
  dmc::ImplicationMiningOptions io;
  io.min_confidence = 0.70;
  dmc::SimilarityMiningOptions so;
  so.min_similarity = 0.70;
  auto imp = dmc::MineImplications(m, io);
  auto sim = dmc::MineSimilarities(m, so);
  if (!imp.ok() || !sim.ok() || imp->size() < 4 || sim->size() < 2) {
    std::printf("self-test: mining the self-test matrix gave %zu rules, "
                "%zu pairs\n", imp.ok() ? imp->size() : size_t{0},
                sim.ok() ? sim->size() : size_t{0});
    return 1;
  }
  const std::vector<ImplicationRule> rules = imp->rules();
  const std::vector<SimilarityPair> pairs = sim->pairs();
  std::vector<ColumnId> all(m.num_columns());
  std::iota(all.begin(), all.end(), ColumnId{0});

  int misbehaved = 0;
  auto expect = [&](const char* name, bool want_pass, const CheckReport& r) {
    const bool good = r.ok() == want_pass;
    std::printf("self-test %-44s %s%s\n", name,
                want_pass ? "passes" : "fails", good ? "" : "  <-- WRONG");
    if (!good) ++misbehaved;
  };

  {
    CheckReport r;
    CheckImplicationRecount(m, t, rules, all, &r);
    CheckSimilarityRecount(m, t, pairs, all, &r);
    CheckIdentical("paths", rules, rules, &r);
    CheckIndex(*dmc::RuleIndexSnapshot::Build(*imp, 1), rules, t, all, &r);
    expect("correct result", true, r);
  }
  const size_t victim = rules.size() / 2;
  {
    std::vector<ImplicationRule> dropped = rules;
    dropped.erase(dropped.begin() + long(victim));
    CheckReport recount, paths, index;
    CheckImplicationRecount(m, t, dropped, all, &recount);
    expect("recount: dropped rule", false, recount);
    CheckIdentical("paths", rules, dropped, &paths);
    expect("path agreement: dropped rule", false, paths);
    CheckIndex(*dmc::RuleIndexSnapshot::Build(
                   dmc::ImplicationRuleSet(dropped), 1),
               rules, t, all, &index);
    expect("index: dropped rule", false, index);
  }
  {
    std::vector<ImplicationRule> flipped = rules;
    ++flipped[victim].misses;
    CheckReport recount, paths;
    CheckImplicationRecount(m, t, flipped, all, &recount);
    expect("recount: flipped count", false, recount);
    CheckIdentical("paths", rules, flipped, &paths);
    expect("path agreement: flipped count", false, paths);
  }
  {
    // A genuine pair whose confidence sits below the threshold, with its
    // true counts: only the threshold can reject it.
    const Recount rc = CountFromRows(m, all);
    ImplicationRule below;
    bool found = false;
    for (ColumnId a = 0; a < m.num_columns() && !found; ++a) {
      for (ColumnId j = 0; j < m.num_columns() && !found; ++j) {
        if (j == a || rc.hits[a][j] == 0 ||
            !Sparser(rc.ones[a], a, rc.ones[j], j) ||
            ImpHolds(t, rc.hits[a][j], rc.ones[a])) {
          continue;
        }
        below = {a, j, uint32_t(rc.ones[a]),
                 uint32_t(rc.ones[a] - rc.hits[a][j])};
        found = true;
      }
    }
    std::vector<ImplicationRule> with_below = rules;
    with_below.push_back(below);
    std::sort(with_below.begin(), with_below.end());
    CheckReport recount, reply;
    CheckImplicationRecount(m, t, with_below, all, &recount);
    expect("recount: rule below threshold", !found, recount);
    CheckReply(QueryKind::kAntecedent, below.lhs, t, {below}, &reply);
    expect("reply: rule below threshold", !found, reply);
  }
  {
    std::vector<SimilarityPair> dropped = pairs;
    dropped.erase(dropped.begin());
    std::vector<SimilarityPair> flipped = pairs;
    ++flipped.back().intersection;
    CheckReport r1, r2;
    CheckSimilarityRecount(m, t, dropped, all, &r1);
    expect("similarity recount: dropped pair", false, r1);
    CheckSimilarityRecount(m, t, flipped, all, &r2);
    expect("similarity recount: flipped count", false, r2);
  }
  {
    // Swap two rules of different confidence in one antecedent's reply.
    const auto index = dmc::RuleIndexSnapshot::Build(*imp, 1);
    bool swapped = false;
    for (ColumnId c = 0; c < m.num_columns() && !swapped; ++c) {
      std::vector<ImplicationRule> reply = index->QueryByAntecedent(c);
      for (size_t i = 1; i < reply.size() && !swapped; ++i) {
        if (CompareConfidence(reply[i - 1], reply[i]) == 0) continue;
        std::swap(reply[i - 1], reply[i]);
        CheckReport r;
        CheckReply(QueryKind::kAntecedent, c, t, reply, &r);
        expect("reply: misordered", false, r);
        swapped = true;
      }
    }
    if (!swapped) {
      std::printf("self-test: no reply with two confidences to misorder\n");
      ++misbehaved;
    }
    CheckReport other;
    CheckReply(QueryKind::kAntecedent, rules[0].lhs, t, {rules.back()},
               &other);
    expect("reply: another column's rule", rules.back().lhs == rules[0].lhs,
           other);
  }
  {
    CheckReport r;
    CheckGeneration(5, 4, &r);
    expect("generation went backwards", false, r);
  }
  return misbehaved;
}

}  // namespace perfbench
