// RuleIndexSnapshot Build/Deserialize against an oracle: the plain
// comparison-sort construction (canonicalize a copy, then three
// std::sorts with the cross-multiplying confidence comparator), kept
// here verbatim. The library builds the same three orders from dense
// confidence ranks and counting sorts; every query, TopK and the
// serialized image must come out byte-identical, on inputs with few and
// with all-distinct confidences, equal rationals, clamped counts,
// duplicates, unsorted input, column ids past 2^16, and a real mine.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dmc_imp.h"
#include "matrix/binary_matrix.h"
#include "rules/rule_index.h"
#include "util/random.h"

namespace dmc {
namespace {

// --- Oracle -----------------------------------------------------------

bool OracleHigherConfidence(const ImplicationRule& a,
                            const ImplicationRule& b) {
  const uint64_t nx = a.misses > a.lhs_ones ? 0 : a.lhs_ones - a.misses;
  const uint64_t ny = b.misses > b.lhs_ones ? 0 : b.lhs_ones - b.misses;
  const uint64_t dx = a.lhs_ones == 0 ? 1 : a.lhs_ones;
  const uint64_t dy = b.lhs_ones == 0 ? 1 : b.lhs_ones;
  const uint64_t lhs = nx * dy;
  const uint64_t rhs = ny * dx;
  if (lhs != rhs) return lhs > rhs;
  return std::tie(a.lhs, a.rhs) < std::tie(b.lhs, b.rhs);
}

struct OracleIndex {
  uint64_t generation = 0;
  std::vector<ImplicationRule> by_lhs;
  std::vector<uint32_t> by_rhs;
  std::vector<uint32_t> by_conf;
};

OracleIndex OracleBuild(const ImplicationRuleSet& rules, uint64_t generation) {
  ImplicationRuleSet canonical = rules;
  canonical.Canonicalize();
  OracleIndex index;
  index.generation = generation;
  index.by_lhs = canonical.rules();
  std::sort(index.by_lhs.begin(), index.by_lhs.end(),
            [](const ImplicationRule& a, const ImplicationRule& b) {
              if (a.lhs != b.lhs) return a.lhs < b.lhs;
              return OracleHigherConfidence(a, b);
            });
  const uint32_t n = static_cast<uint32_t>(index.by_lhs.size());
  for (uint32_t i = 0; i < n; ++i) {
    index.by_rhs.push_back(i);
    index.by_conf.push_back(i);
  }
  const std::vector<ImplicationRule>& all = index.by_lhs;
  std::sort(index.by_rhs.begin(), index.by_rhs.end(),
            [&all](uint32_t x, uint32_t y) {
              if (all[x].rhs != all[y].rhs) return all[x].rhs < all[y].rhs;
              return OracleHigherConfidence(all[x], all[y]);
            });
  std::sort(index.by_conf.begin(), index.by_conf.end(),
            [&all](uint32_t x, uint32_t y) {
              return OracleHigherConfidence(all[x], all[y]);
            });
  return index;
}

std::vector<ImplicationRule> OracleByAntecedent(const OracleIndex& index,
                                                ColumnId lhs) {
  std::vector<ImplicationRule> out;
  for (const ImplicationRule& r : index.by_lhs) {
    if (r.lhs == lhs) out.push_back(r);
  }
  return out;
}

std::vector<ImplicationRule> OracleByConsequent(const OracleIndex& index,
                                                ColumnId rhs) {
  std::vector<ImplicationRule> out;
  for (uint32_t i : index.by_rhs) {
    if (index.by_lhs[i].rhs == rhs) out.push_back(index.by_lhs[i]);
  }
  return out;
}

std::vector<ImplicationRule> OracleTopK(const OracleIndex& index) {
  std::vector<ImplicationRule> out;
  for (uint32_t i : index.by_conf) out.push_back(index.by_lhs[i]);
  return out;
}

template <typename T>
void AppendLE(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

// The v1 image, field by field: DMCRIDX magic, version, generation,
// count, (lhs, rhs, lhs_ones, misses) records, FNV-1a, end magic.
std::string OracleSerialize(const OracleIndex& index) {
  std::string out("DMCRIDX\n");
  AppendLE<uint32_t>(&out, 1);
  AppendLE<uint64_t>(&out, index.generation);
  AppendLE<uint64_t>(&out, index.by_lhs.size());
  for (const ImplicationRule& r : index.by_lhs) {
    AppendLE<uint32_t>(&out, r.lhs);
    AppendLE<uint32_t>(&out, r.rhs);
    AppendLE<uint32_t>(&out, r.lhs_ones);
    AppendLE<uint32_t>(&out, r.misses);
  }
  uint64_t h = 1469598103934665603ULL;
  for (char c : out) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  AppendLE<uint64_t>(&out, h);
  out.append("DMCE");
  return out;
}

// --- Comparison -------------------------------------------------------

void ExpectMatchesOracle(const RuleIndexSnapshot& snap,
                         const OracleIndex& oracle) {
  ASSERT_EQ(snap.size(), oracle.by_lhs.size());
  EXPECT_EQ(snap.generation(), oracle.generation);
  EXPECT_EQ(snap.TopK(0), OracleTopK(oracle));
  std::set<ColumnId> columns = {0, 1, 65535, 65536, 0xFFFFFFFFu};
  for (const ImplicationRule& r : oracle.by_lhs) {
    columns.insert(r.lhs);
    columns.insert(r.rhs);
  }
  for (ColumnId c : columns) {
    EXPECT_EQ(snap.QueryByAntecedent(c), OracleByAntecedent(oracle, c))
        << "antecedent " << c;
    EXPECT_EQ(snap.QueryByConsequent(c), OracleByConsequent(oracle, c))
        << "consequent " << c;
  }
  EXPECT_EQ(snap.Serialize(), OracleSerialize(oracle));
}

// Build and Deserialize of the oracle's image must both reproduce the
// oracle exactly.
void CheckAgainstOracle(const ImplicationRuleSet& rules, uint64_t generation) {
  const OracleIndex oracle = OracleBuild(rules, generation);
  {
    SCOPED_TRACE("Build");
    ExpectMatchesOracle(*RuleIndexSnapshot::Build(rules, generation), oracle);
  }
  SCOPED_TRACE("Deserialize");
  auto loaded =
      RuleIndexSnapshot::Deserialize(OracleSerialize(oracle), "oracle");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectMatchesOracle(**loaded, oracle);
}

// --- Inputs -----------------------------------------------------------

// `rule_count` canonical rules over `columns` columns; counts(rng, lhs)
// draws each rule's {lhs_ones, misses}.
template <typename Counts>
ImplicationRuleSet RandomRules(uint64_t seed, uint32_t columns,
                               size_t rule_count, Counts counts) {
  Rng rng(seed);
  std::set<std::pair<ColumnId, ColumnId>> pairs;
  while (pairs.size() < rule_count) {
    const ColumnId lhs = static_cast<ColumnId>(rng.Uniform(columns));
    const ColumnId rhs = static_cast<ColumnId>(rng.Uniform(columns));
    if (lhs != rhs) pairs.emplace(lhs, rhs);
  }
  ImplicationRuleSet rules;
  for (const auto& [lhs, rhs] : pairs) {
    const auto [ones, misses] = counts(rng, lhs);
    rules.Add(ImplicationRule{lhs, rhs, ones, misses});
  }
  return rules;
}

// As a miner emits them: lhs_ones is the antecedent's, and misses stay
// under a quarter of it, so few fractions occur (1/10 == 2/20 among them).
std::pair<uint32_t, uint32_t> PrunedCounts(Rng& rng, ColumnId lhs) {
  const uint32_t ones = 10 * (1 + lhs % 4);
  return {ones, static_cast<uint32_t>(rng.Uniform(ones / 4 + 1))};
}

TEST(RuleIndexDifferentialTest, FewConfidenceClasses) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    CheckAgainstOracle(RandomRules(seed, 60, 1500, PrunedCounts), seed);
  }
}

TEST(RuleIndexDifferentialTest, AllDistinctConfidenceClasses) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    SCOPED_TRACE(seed);
    CheckAgainstOracle(
        RandomRules(seed, 200, 4000,
                    [](Rng& rng, ColumnId) {
                      const auto ones =
                          static_cast<uint32_t>(1 + rng.Uniform(1u << 30));
                      return std::pair<uint32_t, uint32_t>(
                          ones, static_cast<uint32_t>(rng.Uniform(ones)));
                    }),
        seed);
  }
}

TEST(RuleIndexDifferentialTest, EqualRationalsWithDifferentCounts) {
  // 4/5 == 8/10 == 16/20 == 800/1000, and 1/3 vs 333333/1000000 apart.
  ImplicationRuleSet rules;
  const uint32_t ones[] = {5, 10, 20, 1000, 3, 1000000};
  const uint32_t misses[] = {1, 2, 4, 200, 2, 666667};
  for (ColumnId lhs = 0; lhs < 6; ++lhs) {
    for (ColumnId k = 0; k < 6; ++k) {
      rules.Add(ImplicationRule{lhs, 10 + k, ones[k], misses[k]});
    }
  }
  rules.Canonicalize();
  CheckAgainstOracle(rules, 3);
}

TEST(RuleIndexDifferentialTest, ClampedCounts) {
  // lhs_ones == 0 and misses > lhs_ones both order as confidence 0, the
  // same class as an honest 0/n rule.
  ImplicationRuleSet rules;
  rules.Add(ImplicationRule{0, 1, 0, 0});
  rules.Add(ImplicationRule{0, 2, 0, 7});
  rules.Add(ImplicationRule{0, 3, 2, 5});
  rules.Add(ImplicationRule{0, 4, 4, 4});
  rules.Add(ImplicationRule{0, 5, 4, 1});
  rules.Add(ImplicationRule{1, 0, 0xFFFFFFFFu, 0xFFFFFFFFu});
  rules.Add(ImplicationRule{1, 2, 0xFFFFFFFFu, 1});
  rules.Add(ImplicationRule{1, 3, 0xFFFFFFFEu, 1});
  rules.Add(ImplicationRule{2, 0, 3, 0xFFFFFFFFu});
  CheckAgainstOracle(rules, 4);
}

TEST(RuleIndexDifferentialTest, DuplicatesAndUnsortedInput) {
  const ImplicationRuleSet base = RandomRules(21, 40, 600, PrunedCounts);
  std::vector<ImplicationRule> shuffled = base.rules();
  Rng rng(22);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  CheckAgainstOracle(ImplicationRuleSet(shuffled), 5);

  // Exact duplicates, appended out of order.
  std::vector<ImplicationRule> doubled = shuffled;
  doubled.insert(doubled.end(), shuffled.begin(), shuffled.begin() + 100);
  CheckAgainstOracle(ImplicationRuleSet(doubled), 6);
  // An ascending set with one repeated pair is not canonical either,
  // whether the copies agree or not.
  std::vector<ImplicationRule> repeated = base.rules();
  repeated.insert(repeated.begin() + 10, repeated[10]);
  CheckAgainstOracle(ImplicationRuleSet(repeated), 7);
  ImplicationRule other = repeated[30];
  other.misses += 1;
  repeated.insert(repeated.begin() + 31, other);
  CheckAgainstOracle(ImplicationRuleSet(repeated), 8);
}

TEST(RuleIndexDifferentialTest, EmptyAndSingleRule) {
  CheckAgainstOracle(ImplicationRuleSet(), 0);
  ImplicationRuleSet one;
  one.Add(ImplicationRule{7, 3, 9, 2});
  CheckAgainstOracle(one, 1);
}

TEST(RuleIndexDifferentialTest, ColumnIdsPastOneRadixDigit) {
  // Ids above 2^16 take the counting sorts' second pass.
  ImplicationRuleSet rules;
  const ColumnId ids[] = {0,      1,      65535,       65536,
                          70000,  131072, 0x12345678u, 0xFFFFFFFEu,
                          0xFFFFFFFFu};
  Rng rng(31);
  for (ColumnId lhs : ids) {
    for (ColumnId rhs : ids) {
      if (lhs == rhs) continue;
      rules.Add(ImplicationRule{lhs, rhs, 8,
                                static_cast<uint32_t>(rng.Uniform(3))});
    }
  }
  CheckAgainstOracle(rules, 8);
}

TEST(RuleIndexDifferentialTest, MinedRules) {
  Rng rng(41);
  MatrixBuilder b(40);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < 300; ++r) {
    row.clear();
    for (ColumnId c = 0; c < 40; ++c) {
      if (rng.Bernoulli(c < 10 ? 0.5 : 0.15)) row.push_back(c);
    }
    b.AddRow(row);
  }
  ImplicationMiningOptions options;
  options.min_confidence = 0.3;
  auto mined = MineImplications(b.Build(), options);
  ASSERT_TRUE(mined.ok()) << mined.status();
  ASSERT_GT(mined->size(), 100u);
  CheckAgainstOracle(*mined, 9);
}

}  // namespace
}  // namespace dmc
