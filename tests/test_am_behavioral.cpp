#include "am/behavioral.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "am/words.h"

namespace tdam::am {
namespace {

CalibrationResult calibration() {
  static const CalibrationResult cal = [] {
    Rng rng(31);
    return calibrate_chain(ChainConfig{}, rng);
  }();
  return cal;
}

TEST(BehavioralAm, DistancesEqualDigitHamming) {
  BehavioralAm am(calibration(), 16);
  Rng rng(32);
  const auto w0 = random_word(rng, 16, 4);
  const auto w1 = random_word(rng, 16, 4);
  am.store(w0);
  am.store(w1);
  const auto q = random_word(rng, 16, 4);
  const auto res = am.search(q);
  EXPECT_EQ(res.distances[0], hamming(w0, q));
  EXPECT_EQ(res.distances[1], hamming(w1, q));
}

TEST(BehavioralAm, BestRowIsNearest) {
  BehavioralAm am(calibration(), 8);
  const std::vector<int> base(8, 2);
  am.store(word_with_mismatches(base, 4, 4));
  am.store(base);
  am.store(word_with_mismatches(base, 7, 4));
  EXPECT_EQ(am.search(base).best_row, 1);
}

TEST(BehavioralAm, AgreesWithTransientEngine) {
  // The whole point of the calibrated model: delays/energies within a few
  // percent of the circuit engine on an unseen configuration.
  Rng rng(33);
  ChainConfig cfg;
  const auto cal = calibration();
  TdAmChain chain(cfg, 12, rng);
  const auto word = random_word(rng, 12, 4);
  chain.store(word);
  BehavioralAm am(cal, 12);
  am.store(word);

  for (int mis : {0, 4, 9, 12}) {
    const auto q = word_with_mismatches(word, mis, 4);
    const auto circuit = chain.search(q);
    const double fast_delay = am.chain_delay(mis);
    const double fast_energy = am.chain_energy(mis);
    EXPECT_NEAR(fast_delay, circuit.delay_total, 0.05 * circuit.delay_total);
    EXPECT_NEAR(fast_energy, circuit.energy, 0.15 * circuit.energy);
  }
}

TEST(BehavioralAm, TopKMatchesFullSort) {
  BehavioralAm am(calibration(), 12);
  Rng rng(40);
  std::vector<std::vector<int>> stored;
  for (int r = 0; r < 20; ++r) {
    stored.push_back(random_word(rng, 12, 4));
    am.store(stored.back());
  }
  const auto q = random_word(rng, 12, 4);
  std::vector<TopKEntry> ref;
  for (std::size_t r = 0; r < stored.size(); ++r)
    ref.push_back({static_cast<int>(r),
                   static_cast<double>(hamming(stored[r], q))});
  std::sort(ref.begin(), ref.end(),
            core::ScoreComparator{core::ScoreOrder::kAscending});
  for (int k : {1, 5, 19, 20}) {
    const auto res = am.search_topk(q, k);
    ASSERT_EQ(res.entries.size(), static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i)
      EXPECT_EQ(res.entries[static_cast<std::size_t>(i)],
                ref[static_cast<std::size_t>(i)]);
  }
}

TEST(BehavioralAm, TopKTieBreaksOnLowerRow) {
  BehavioralAm am(calibration(), 8);
  const std::vector<int> word(8, 1);
  for (int i = 0; i < 4; ++i) am.store(word);  // four identical rows
  const auto res = am.search_topk(word, 3);
  ASSERT_EQ(res.entries.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(res.entries[static_cast<std::size_t>(i)].row, i);
    EXPECT_EQ(res.entries[static_cast<std::size_t>(i)].score, 0.0);
  }
}

TEST(BehavioralAm, TopKCostsMatchFullSearch) {
  // k only trims the readout; every chain still fires, so the physical
  // latency/energy must equal the full search's.
  BehavioralAm am(calibration(), 10);
  Rng rng(41);
  for (int r = 0; r < 6; ++r) am.store(random_word(rng, 10, 4));
  const auto q = random_word(rng, 10, 4);
  const auto full = am.search(q);
  const auto topk = am.search_topk(q, 2);
  EXPECT_DOUBLE_EQ(topk.latency, full.latency);
  EXPECT_DOUBLE_EQ(topk.energy, full.energy);
  double sum = 0.0;
  for (int d : full.distances) sum += d;
  EXPECT_DOUBLE_EQ(topk.mean_score,
                   sum / static_cast<double>(full.distances.size()));
}

// Checks search_topk (and search's costs) for `q` bit for bit against the
// calibrated model evaluated row by row: TDC code entries in (code, row)
// order, the integer mean, the slowest chain's delay and the row-order
// energy sum.
void expect_matches_per_row_model(const BehavioralAm& am,
                                  const std::vector<std::vector<int>>& stored,
                                  const std::vector<int>& q) {
  const auto& cal = am.calibration();
  const int stages = am.stages();
  const TimeDigitalConverter tdc(cal.predict_delay(stages, 0), cal.d_c,
                                 stages);
  std::vector<TopKEntry> ref;
  double latency = 0.0, energy = 0.0;
  long sum = 0;
  for (std::size_t r = 0; r < stored.size(); ++r) {
    const int mis = hamming(stored[r], q);
    const double delay = cal.predict_delay(stages, mis);
    const int code = tdc.convert(delay);
    ref.push_back({static_cast<int>(r), static_cast<double>(code)});
    sum += code;
    latency = std::max(latency, delay);
    energy += cal.predict_energy(stages, mis);
  }
  std::sort(ref.begin(), ref.end(),
            core::ScoreComparator{core::ScoreOrder::kAscending});
  const int rows = static_cast<int>(stored.size());
  for (int k : {1, 10, rows - 1, rows, rows + 7}) {
    if (k < 1) continue;
    const auto res = am.search_topk(q, k);
    const std::vector<TopKEntry> want(
        ref.begin(), ref.begin() + std::min<std::ptrdiff_t>(k, rows));
    EXPECT_EQ(res.entries, want) << "k=" << k;
    EXPECT_EQ(res.mean_score,
              static_cast<double>(sum) / static_cast<double>(rows));
    EXPECT_EQ(res.latency, latency);
    EXPECT_EQ(res.energy, energy);
  }
  const auto full = am.search(q);
  EXPECT_EQ(full.latency, latency);
  EXPECT_EQ(full.energy, energy);
}

TEST(BehavioralAm, TopKBitIdenticalToPerRowModel) {
  constexpr int kStages = 37, kLevels = 4, kRows = 150;
  Rng rng(42);
  const auto base = random_word(rng, kStages, kLevels);
  const auto opposite = word_with_mismatches(base, kStages, kLevels);

  // Every mismatch count from 0 to kStages occurs, plus random rows.
  BehavioralAm mixed(calibration(), kStages);
  std::vector<std::vector<int>> stored;
  for (int r = 0; r < kRows; ++r) {
    stored.push_back(r <= kStages ? word_with_mismatches(base, r, kLevels)
                                  : random_word(rng, kStages, kLevels));
    mixed.store(stored.back());
  }
  expect_matches_per_row_model(mixed, stored, base);
  expect_matches_per_row_model(mixed, stored, opposite);
  for (int i = 0; i < 3; ++i)
    expect_matches_per_row_model(mixed, stored,
                                 random_word(rng, kStages, kLevels));

  // Identical rows: `base` matches every row in every digit (all codes 0),
  // `opposite` mismatches every digit of every row (all codes kStages).
  BehavioralAm uniform(calibration(), kStages);
  const std::vector<std::vector<int>> copies(kRows, base);
  for (const auto& row : copies) uniform.store(row);
  expect_matches_per_row_model(uniform, copies, base);
  expect_matches_per_row_model(uniform, copies, opposite);
  EXPECT_EQ(uniform.search_topk(base, 3).entries.back(), (TopKEntry{2, 0.0}));
  EXPECT_EQ(uniform.search_topk(opposite, 3).entries.back(),
            (TopKEntry{2, static_cast<double>(kStages)}));
}

TEST(BehavioralAm, TopKOversizedKAndValidation) {
  BehavioralAm am(calibration(), 4);
  const std::vector<int> q(4, 0);
  EXPECT_TRUE(am.search_topk(q, 3).entries.empty());  // empty store
  am.store(q);
  EXPECT_EQ(am.search_topk(q, 99).entries.size(), 1u);  // k > rows: all rows
  EXPECT_THROW(am.search_topk(q, 0), std::invalid_argument);
  const std::vector<int> wrong(5, 0);
  EXPECT_THROW(am.search_topk(wrong, 1), std::invalid_argument);
}

TEST(BehavioralAm, EmptyAndClear) {
  BehavioralAm am(calibration(), 4);
  const std::vector<int> q(4, 0);
  const auto res = am.search(q);
  EXPECT_EQ(res.best_row, -1);
  EXPECT_TRUE(res.distances.empty());
  am.store(q);
  EXPECT_EQ(am.rows(), 1);
  am.clear();
  EXPECT_EQ(am.rows(), 0);
}

TEST(BehavioralAm, Validation) {
  EXPECT_THROW(BehavioralAm(calibration(), 0), std::invalid_argument);
  BehavioralAm am(calibration(), 4);
  const std::vector<int> wrong(5, 0);
  EXPECT_THROW(am.store(wrong), std::invalid_argument);
  EXPECT_THROW(am.search(wrong), std::invalid_argument);
}

TEST(BehavioralAm, StoreRejectsDigitsOutsideCalibratedLevels) {
  // Default ChainConfig calibrates 2-bit cells: digits must be in [0, 4).
  BehavioralAm am(calibration(), 4);
  EXPECT_EQ(am.levels(), 4);
  EXPECT_THROW(am.store(std::vector<int>{0, 1, 2, 4}), std::invalid_argument);
  EXPECT_THROW(am.store(std::vector<int>{0, -1, 2, 3}), std::invalid_argument);
  EXPECT_EQ(am.rows(), 0);  // rejected stores must not leave partial rows
  // The error names the offending digit and the calibrated range.
  try {
    am.store(std::vector<int>{0, 1, 9, 3});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("9"), std::string::npos);
    EXPECT_NE(msg.find("[0, 4)"), std::string::npos);
  }
  // Searches validate the same way.
  am.store(std::vector<int>{0, 1, 2, 3});
  EXPECT_THROW(am.search(std::vector<int>{0, 1, 2, 4}), std::invalid_argument);
  EXPECT_THROW(am.search_topk(std::vector<int>{0, 1, 2, 4}, 1),
               std::invalid_argument);
}

TEST(AmSystemModel, SinglePassWhenArrayFits) {
  AmSystemModel sys(calibration(), /*rows=*/128, /*stages=*/128);
  // 128 digits x 26 vectors = 26 segments <= 128 rows: one pass.
  const auto cost = sys.query_cost(128, 26, 0.75);
  EXPECT_EQ(cost.passes, 1);
  EXPECT_NEAR(cost.latency, sys.pass_cycle_time(), 1e-15);
}

TEST(AmSystemModel, PassesGrowWithDimensionality) {
  AmSystemModel sys(calibration(), 128, 128);
  const auto small = sys.query_cost(512, 26, 0.75);
  const auto large = sys.query_cost(10240, 26, 0.75);
  EXPECT_GT(large.passes, small.passes);
  EXPECT_GT(large.latency, small.latency);
  EXPECT_GT(large.energy, small.energy);
  // 10240 digits = 80 segments per vector * 26 = 2080 segments -> 17 passes.
  EXPECT_EQ(large.passes, 17);
}

TEST(AmSystemModel, EnergyScalesWithComparedDigits) {
  AmSystemModel sys(calibration(), 128, 128);
  const auto e1 = sys.query_cost(1024, 10, 0.75).energy;
  const auto e2 = sys.query_cost(2048, 10, 0.75).energy;
  EXPECT_NEAR(e2 / e1, 2.0, 0.1);
}

TEST(AmSystemModel, Validation) {
  EXPECT_THROW(AmSystemModel(calibration(), 0, 128), std::invalid_argument);
  AmSystemModel sys(calibration(), 8, 8);
  EXPECT_THROW(sys.query_cost(0, 4, 0.5), std::invalid_argument);
  EXPECT_THROW(sys.query_cost(8, 0, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace tdam::am
