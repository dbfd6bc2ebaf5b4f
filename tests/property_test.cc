// The library's central property: DMC mining is EXACT — for any matrix
// and any threshold, the rule set equals the brute-force ground truth
// (no false positives, no false negatives), under every combination of
// policy knobs (row order, 100% phase, bitmap fallback, pruning flags).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "baselines/bruteforce.h"
#include "core/engine.h"
#include "datagen/planted_gen.h"
#include "matrix/binary_matrix.h"
#include "rules/verifier.h"
#include "util/random.h"

namespace dmc {
namespace {

BinaryMatrix RandomMatrix(uint32_t rows, uint32_t cols, double density,
                          uint64_t seed) {
  Rng rng(seed);
  MatrixBuilder b(cols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < rows; ++r) {
    row.clear();
    for (ColumnId c = 0; c < cols; ++c) {
      if (rng.Bernoulli(density)) row.push_back(c);
    }
    b.AddRow(row);
  }
  return b.Build();
}

// A matrix with a few dense "crawler" rows appended, to exercise the
// bitmap fallback path realistically.
BinaryMatrix SkewedMatrix(uint32_t rows, uint32_t cols, uint64_t seed) {
  Rng rng(seed);
  MatrixBuilder b(cols);
  std::vector<ColumnId> row;
  for (uint32_t r = 0; r < rows; ++r) {
    row.clear();
    const double density = r + 3 >= rows ? 0.9 : 0.06;
    for (ColumnId c = 0; c < cols; ++c) {
      if (rng.Bernoulli(density)) row.push_back(c);
    }
    b.AddRow(row);
  }
  return b.Build();
}

struct PropertyCase {
  uint32_t rows;
  uint32_t cols;
  double density;
  double threshold;
  uint64_t seed;
  bool skewed;
};

std::string CaseName(const testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& p = info.param;
  std::ostringstream name;
  name << "r" << p.rows << "_c" << p.cols << "_d" << int(p.density * 100)
       << "_t" << int(p.threshold * 100) << "_s" << p.seed;
  if (p.skewed) name << "_skew";
  return name.str();
}

class DmcExactnessTest : public testing::TestWithParam<PropertyCase> {
 protected:
  BinaryMatrix MakeMatrix() const {
    const PropertyCase& p = GetParam();
    return p.skewed ? SkewedMatrix(p.rows, p.cols, p.seed)
                    : RandomMatrix(p.rows, p.cols, p.density, p.seed);
  }
};

TEST_P(DmcExactnessTest, ImplicationsMatchBruteForceAllPolicies) {
  const PropertyCase& p = GetParam();
  const BinaryMatrix m = MakeMatrix();
  const auto truth = BruteForceImplications(m, p.threshold);
  const RuleVerifier verifier(m);

  for (auto order : {RowOrderPolicy::kIdentity,
                     RowOrderPolicy::kDensityBuckets}) {
    for (bool hundred : {false, true}) {
      for (bool bitmap : {false, true}) {
        ImplicationMiningOptions o;
        o.min_confidence = p.threshold;
        o.policy.row_order = order;
        o.policy.hundred_percent_phase = hundred;
        o.policy.bitmap_fallback = bitmap;
        o.policy.memory_threshold_bytes = 1;  // trigger eagerly
        o.policy.bitmap_max_remaining_rows = p.rows / 3 + 1;
        auto rules = MineImplications(m, o);
        ASSERT_TRUE(rules.ok());
        ASSERT_EQ(rules->Pairs(), truth.Pairs())
            << "order=" << int(order) << " hundred=" << hundred
            << " bitmap=" << bitmap;
        EXPECT_TRUE(
            verifier.VerifyImplications(*rules, p.threshold).ok());
      }
    }
  }
}

TEST_P(DmcExactnessTest, SimilaritiesMatchBruteForceAllPolicies) {
  const PropertyCase& p = GetParam();
  const BinaryMatrix m = MakeMatrix();
  const auto truth = BruteForceSimilarities(m, p.threshold);
  const RuleVerifier verifier(m);

  for (bool hundred : {false, true}) {
    for (bool bitmap : {false, true}) {
      for (bool maxhits : {false, true}) {
        SimilarityMiningOptions o;
        o.min_similarity = p.threshold;
        o.policy.row_order = RowOrderPolicy::kDensityBuckets;
        o.policy.hundred_percent_phase = hundred;
        o.policy.bitmap_fallback = bitmap;
        o.policy.memory_threshold_bytes = 1;
        o.policy.bitmap_max_remaining_rows = p.rows / 3 + 1;
        o.policy.max_hits_pruning = maxhits;
        auto pairs = MineSimilarities(m, o);
        ASSERT_TRUE(pairs.ok());
        ASSERT_EQ(pairs->Pairs(), truth.Pairs())
            << "hundred=" << hundred << " bitmap=" << bitmap
            << " maxhits=" << maxhits;
        EXPECT_TRUE(
            verifier.VerifySimilarities(*pairs, p.threshold).ok());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, DmcExactnessTest,
    testing::Values(
        PropertyCase{30, 8, 0.30, 0.50, 1, false},
        PropertyCase{50, 12, 0.20, 0.70, 2, false},
        PropertyCase{80, 15, 0.15, 0.80, 3, false},
        PropertyCase{120, 20, 0.10, 0.90, 4, false},
        PropertyCase{200, 25, 0.08, 0.85, 5, false},
        PropertyCase{64, 10, 0.40, 1.00, 6, false},
        PropertyCase{100, 16, 0.25, 0.95, 7, false},
        PropertyCase{150, 30, 0.05, 0.60, 8, false},
        PropertyCase{40, 6, 0.50, 0.75, 9, false},
        PropertyCase{300, 12, 0.12, 0.88, 10, false},
        PropertyCase{60, 20, 0.10, 0.80, 11, true},
        PropertyCase{90, 25, 0.08, 0.90, 12, true},
        PropertyCase{120, 15, 0.10, 0.70, 13, true},
        PropertyCase{45, 18, 0.15, 1.00, 14, true}),
    CaseName);

// Sparse extreme: very low densities where most columns have 0-2 ones.
INSTANTIATE_TEST_SUITE_P(
    SparseSweep, DmcExactnessTest,
    testing::Values(PropertyCase{200, 60, 0.01, 0.80, 21, false},
                    PropertyCase{300, 80, 0.02, 0.90, 22, false},
                    PropertyCase{150, 40, 0.03, 0.50, 23, false}),
    CaseName);

// Threshold extremes, including just-above-zero.
INSTANTIATE_TEST_SUITE_P(
    ThresholdSweep, DmcExactnessTest,
    testing::Values(PropertyCase{60, 10, 0.2, 0.05, 31, false},
                    PropertyCase{60, 10, 0.2, 0.33, 32, false},
                    PropertyCase{60, 10, 0.2, 0.99, 33, false}),
    CaseName);

TEST(PlantedTruthTest, AllPlantedImplicationsRecovered) {
  PlantedOptions opts;
  opts.seed = 1234;
  const PlantedData data = GeneratePlanted(opts);
  const double conf =
      double(opts.implication_hits) / opts.implication_lhs_ones;
  ImplicationMiningOptions o;
  o.min_confidence = conf;
  auto rules = MineImplications(data.matrix, o);
  ASSERT_TRUE(rules.ok());
  // Every planted rule must be present with exact counts.
  for (const ImplicationRule& planted : data.implications) {
    bool found = false;
    for (const ImplicationRule& r : *rules) {
      if (r.lhs == planted.lhs && r.rhs == planted.rhs) {
        EXPECT_EQ(r.lhs_ones, planted.lhs_ones);
        EXPECT_EQ(r.misses, planted.misses);
        found = true;
      }
    }
    EXPECT_TRUE(found) << planted.ToString();
  }
  // And the whole output matches brute force (no spurious extras).
  EXPECT_EQ(rules->Pairs(),
            BruteForceImplications(data.matrix, conf).Pairs());
}

TEST(PlantedTruthTest, AllPlantedSimilaritiesRecovered) {
  PlantedOptions opts;
  opts.seed = 4321;
  const PlantedData data = GeneratePlanted(opts);
  const double sim =
      double(opts.sim_intersection) /
      (opts.sim_ones_a + opts.sim_ones_b - opts.sim_intersection);
  SimilarityMiningOptions o;
  o.min_similarity = sim;
  auto pairs = MineSimilarities(data.matrix, o);
  ASSERT_TRUE(pairs.ok());
  for (const SimilarityPair& planted : data.similarities) {
    bool found = false;
    for (const SimilarityPair& p : *pairs) {
      if (p.a == planted.a && p.b == planted.b) {
        EXPECT_EQ(p.intersection, planted.intersection);
        found = true;
      }
    }
    EXPECT_TRUE(found) << planted.ToString();
  }
  EXPECT_EQ(pairs->Pairs(),
            BruteForceSimilarities(data.matrix, sim).Pairs());
}

TEST(PlantedTruthTest, ThresholdJustAbovePlantedExcludesThem) {
  PlantedOptions opts;
  opts.seed = 999;
  opts.num_implications = 5;
  const PlantedData data = GeneratePlanted(opts);
  const double conf =
      double(opts.implication_hits) / opts.implication_lhs_ones;
  ImplicationMiningOptions o;
  o.min_confidence = conf + 0.02;
  auto rules = MineImplications(data.matrix, o);
  ASSERT_TRUE(rules.ok());
  for (const ImplicationRule& planted : data.implications) {
    for (const ImplicationRule& r : *rules) {
      EXPECT_FALSE(r.lhs == planted.lhs && r.rhs == planted.rhs)
          << "planted rule above threshold: " << r.ToString();
    }
  }
}

}  // namespace
}  // namespace dmc
