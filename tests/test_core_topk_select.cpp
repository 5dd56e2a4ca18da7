// Exact top-k select tests: the counting select (bounded integer scores)
// and the bounded-heap select (real scores, either order) against a
// full-sort reference — directly, and through every exhaustive scan path
// (single-query and tiled; mismatch, L1, dot and cosine).  Covers
// all-equal columns, ties at the k-th score, scores at 0 and at the
// maximum, k in {1, 10, rows-1, rows, rows+7}, and 0, 1 and ragged row
// counts.
#include "core/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/cosine_backend.h"
#include "core/digit_matrix.h"
#include "core/exact_backend.h"
#include "util/rng.h"

namespace tdam::core {
namespace {

// The reference every select must match: one entry per row, fully sorted
// under ScoreComparator, truncated to min(k, rows).
template <typename Score>
std::vector<TopKEntry> full_sort(const std::vector<Score>& scores, int k,
                                 ScoreOrder order) {
  std::vector<TopKEntry> all;
  for (std::size_t r = 0; r < scores.size(); ++r)
    all.push_back({static_cast<int>(r), static_cast<double>(scores[r])});
  std::sort(all.begin(), all.end(), ScoreComparator{order});
  all.resize(std::min(all.size(), static_cast<std::size_t>(k)));
  return all;
}

std::vector<int> k_values(int rows) {
  std::vector<int> ks;
  for (int k : {1, 10, rows - 1, rows, rows + 7})
    if (k >= 1) ks.push_back(k);
  return ks;
}

constexpr int kRowCounts[] = {0, 1, 2, 37, 130};
// 1,100 rows fill every bin of max_score 1,020 at least once on average;
// the short columns leave most bins empty.
constexpr int kCountingRowCounts[] = {0, 1, 2, 37, 130, 1100};

// Integer score columns over [0, max_score]: all-equal at both ends, the
// two ends only, uniform, and a two-value band that ties at the k-th score.
std::vector<std::vector<std::int32_t>> int_columns(
    int max_score, std::span<const int> row_counts, Rng& rng) {
  std::vector<std::vector<std::int32_t>> out;
  const auto draw = [&](std::int32_t lo, std::int32_t hi) {
    return static_cast<std::int32_t>(
        lo + static_cast<std::int32_t>(
                 rng.uniform_below(static_cast<std::uint64_t>(hi - lo + 1))));
  };
  const std::int32_t mid = max_score / 2;
  const std::int32_t mid_hi = std::min(mid + 1, max_score);
  for (const int rows : row_counts) {
    const auto n = static_cast<std::size_t>(rows);
    out.emplace_back(n, 0);
    out.emplace_back(n, max_score);
    std::vector<std::int32_t> ends(n), uniform(n), band(n);
    for (std::size_t r = 0; r < n; ++r) {
      ends[r] = draw(0, 1) == 0 ? 0 : max_score;
      uniform[r] = draw(0, max_score);
      band[r] = draw(mid, mid_hi);
    }
    out.push_back(ends);
    out.push_back(uniform);
    out.push_back(band);
  }
  return out;
}

TEST(CoreTopKSelect, CountingSelectMatchesFullSort) {
  Rng rng(11);
  for (const int max_score : {0, 1, 3, 64, 1020}) {
    for (const auto& column : int_columns(max_score, kCountingRowCounts, rng)) {
      const int rows = static_cast<int>(column.size());
      std::int64_t sum = 0;
      for (const auto s : column) sum += s;
      for (const int k : k_values(rows)) {
        const auto got = select_topk_counting(column, max_score, k);
        EXPECT_EQ(got.entries, full_sort(column, k, ScoreOrder::kAscending))
            << "max=" << max_score << " rows=" << rows << " k=" << k;
        EXPECT_EQ(got.mean_score,
                  rows == 0 ? 0.0
                            : static_cast<double>(sum) /
                                  static_cast<double>(rows));
      }
    }
  }
}

TEST(CoreTopKSelect, CountingSelectTiesAtTheKthScoreKeepLowerRows) {
  // Rows 0..9 score 2, rows 10..19 score 1: k = 13 keeps all ten 1s and
  // the first three 2s, in (score, row) order.
  std::vector<std::int32_t> column(20, 2);
  for (int r = 10; r < 20; ++r) column[static_cast<std::size_t>(r)] = 1;
  const auto got = select_topk_counting(column, 4, 13);
  ASSERT_EQ(got.entries.size(), 13u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(got.entries[static_cast<std::size_t>(i)],
              (TopKEntry{10 + i, 1.0}));
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(got.entries[static_cast<std::size_t>(10 + i)],
              (TopKEntry{i, 2.0}));
}

TEST(CoreTopKSelect, CountingSelectRejectsBadArguments) {
  const std::vector<std::int32_t> column{0, 3, 1};
  EXPECT_THROW(select_topk_counting(column, 3, 0), std::invalid_argument);
  EXPECT_THROW(select_topk_counting(column, -1, 1), std::invalid_argument);
  EXPECT_THROW(select_topk_counting(column, 2, 1), std::invalid_argument);
  const std::vector<std::int32_t> negative{0, -1};
  EXPECT_THROW(select_topk_counting(negative, 3, 1), std::invalid_argument);
  // Far fewer rows than bins, out of range above and below.
  const std::vector<std::int32_t> over{0, 101}, under{-1, 5};
  EXPECT_THROW(select_topk_counting(over, 100, 1), std::invalid_argument);
  EXPECT_THROW(select_topk_counting(under, 100, 1), std::invalid_argument);
}

TEST(CoreTopKSelect, HeapSelectMatchesFullSortInBothOrders) {
  Rng rng(12);
  for (const int rows : kRowCounts) {
    const auto n = static_cast<std::size_t>(rows);
    std::vector<std::vector<double>> columns;
    columns.emplace_back(n, 0.0);  // all equal
    columns.emplace_back(n, -3.5);
    std::vector<double> ties(n), spread(n), ends(n);
    for (std::size_t r = 0; r < n; ++r) {
      ties[r] = static_cast<double>(rng.uniform_below(3));  // ties at k
      spread[r] = rng.uniform(-1.0, 1.0);
      ends[r] = rng.uniform_below(2) == 0 ? 0.0 : 1.0;
    }
    columns.push_back(ties);
    columns.push_back(spread);
    columns.push_back(ends);
    for (const auto& column : columns) {
      double sum = 0.0;
      for (const double s : column) sum += s;  // row order, like the select
      for (const auto order : {ScoreOrder::kAscending, ScoreOrder::kDescending})
        for (const int k : k_values(rows)) {
          const auto got = select_topk_heap(
              rows, k, order,
              [&](int r) { return column[static_cast<std::size_t>(r)]; });
          EXPECT_EQ(got.entries, full_sort(column, k, order))
              << "rows=" << rows << " k=" << k;
          EXPECT_EQ(got.mean_score,
                    rows == 0 ? 0.0 : sum / static_cast<double>(rows));
        }
    }
  }
  EXPECT_THROW(select_topk_heap(3, 0, ScoreOrder::kAscending,
                                [](int) { return 0.0; }),
               std::invalid_argument);
}

TEST(CoreTopKSelect, HeapAndCountingAgreeOnIntegerScores) {
  Rng rng(13);
  for (const auto& column : int_columns(64, kRowCounts, rng)) {
    const int rows = static_cast<int>(column.size());
    for (const int k : k_values(rows)) {
      const auto heap = select_topk_heap(
          rows, k, ScoreOrder::kAscending, [&](int r) {
            return static_cast<double>(column[static_cast<std::size_t>(r)]);
          });
      EXPECT_EQ(heap.entries, select_topk_counting(column, 64, k).entries);
    }
  }
}

// --- through the exhaustive scans ---------------------------------------

struct Workload {
  std::vector<std::vector<int>> rows;
  std::vector<std::vector<int>> queries;
};

// Stored rows and queries at both ends of the digit range plus random ones,
// so L1 scores reach 0 and stages·(levels−1).
Workload make_workload(int stages, int levels, int rows, Rng& rng) {
  const auto word = [&](int kind) {
    std::vector<int> w(static_cast<std::size_t>(stages));
    for (auto& d : w)
      d = kind == 0   ? 0
          : kind == 1 ? levels - 1
                      : static_cast<int>(rng.uniform_below(
                            static_cast<std::uint64_t>(levels)));
    return w;
  };
  Workload w;
  for (int r = 0; r < rows; ++r) w.rows.push_back(word(r % 5 < 2 ? r % 5 : 2));
  for (int kind : {0, 1, 2, 2}) w.queries.push_back(word(kind));
  return w;
}

std::int64_t reference_score(DigitMetric metric, const std::vector<int>& a,
                             const std::vector<int>& b) {
  std::int64_t s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    switch (metric) {
      case DigitMetric::kMismatchCount:
        s += a[i] != b[i] ? 1 : 0;
        break;
      case DigitMetric::kL1:
        s += a[i] > b[i] ? a[i] - b[i] : b[i] - a[i];
        break;
      default:
        s += static_cast<std::int64_t>(a[i]) * b[i];
        break;
    }
  }
  return s;
}

std::int64_t norm_sq(const std::vector<int>& a) {
  std::int64_t s = 0;
  for (const int d : a) s += static_cast<std::int64_t>(d) * d;
  return s;
}

// Brute-force top-k and mean for one query, in the metric's exact score
// arithmetic (integer sum for distances, row-order double sum otherwise).
BackendTopK brute_force(DigitMetric metric, const Workload& w,
                        const std::vector<int>& query, int k) {
  std::vector<double> scores;
  std::int64_t isum = 0;
  double dsum = 0.0;
  for (const auto& row : w.rows) {
    const std::int64_t raw = reference_score(metric, row, query);
    const double score =
        metric == DigitMetric::kCosine
            ? cosine_score(raw, norm_sq(row), norm_sq(query))
            : static_cast<double>(raw);
    scores.push_back(score);
    isum += raw;
    dsum += score;
  }
  BackendTopK out;
  out.entries = full_sort(scores, k, metric_order(metric));
  if (!scores.empty())
    out.mean_score =
        metric_is_mismatch_family(metric)
            ? static_cast<double>(isum) / static_cast<double>(scores.size())
            : dsum / static_cast<double>(scores.size());
  return out;
}

std::unique_ptr<SimilarityBackend> make_backend(DigitMetric metric, int stages,
                                                int levels,
                                                const ScanOptions& scan) {
  switch (metric) {
    case DigitMetric::kCosine:
      return std::make_unique<CosineBackend>(stages, levels,
                                             SimilarityArrayModel{}, scan);
    case DigitMetric::kDot:
      return std::make_unique<DotProductBackend>(stages, levels,
                                                 SimilarityArrayModel{}, scan);
    default:
      return std::make_unique<ExactL1Backend>(stages, levels, metric, scan);
  }
}

TEST(CoreTopKSelect, ExhaustiveScansMatchBruteForceOnEveryPath) {
  constexpr int kStages = 19;  // ragged: never fills the final packed word
  const ScanOptions scan{.query_tile = 3, .row_block = 16};
  Rng rng(14);
  for (const int levels : {2, 4, 16, 256}) {
    for (const auto metric : {DigitMetric::kMismatchCount, DigitMetric::kL1,
                              DigitMetric::kDot, DigitMetric::kCosine}) {
      for (const int rows : kRowCounts) {
        const auto w = make_workload(kStages, levels, rows, rng);
        const auto backend = make_backend(metric, kStages, levels, scan);
        DigitMatrix queries(kStages, levels);
        for (const auto& row : w.rows) backend->store(row);
        for (const auto& q : w.queries) queries.append(q);
        for (const int k : k_values(rows)) {
          const auto tiled = backend->search_topk_packed_batch(
              queries, 0, queries.rows(), k);
          ASSERT_EQ(tiled.size(), w.queries.size());
          for (std::size_t q = 0; q < w.queries.size(); ++q) {
            const auto want = brute_force(metric, w, w.queries[q], k);
            const auto single = backend->search_topk(w.queries[q], k);
            for (const auto* got : {&single, &tiled[q]}) {
              EXPECT_EQ(got->entries, want.entries)
                  << metric_name(metric) << " levels=" << levels
                  << " rows=" << rows << " k=" << k << " query=" << q;
              EXPECT_EQ(got->mean_score, want.mean_score)
                  << metric_name(metric) << " levels=" << levels;
            }
          }
        }
      }
    }
  }
}

TEST(CoreTopKSelect, L1ScoresReachBothEndsOfTheBinRange) {
  // All-zero rows against an all-max query score stages·(levels−1), the
  // counting select's top bin; all-max rows score 0.  Two rows leave the
  // bins between the ends empty; max_score + 1 rows are as many as bins.
  constexpr int kStages = 7;
  for (const int levels : {2, 4, 16, 256}) {
    const int max_score = kStages * (levels - 1);
    const std::vector<int> zeros(kStages, 0), maxes(kStages, levels - 1);
    for (const int rows : {2, max_score + 1}) {
      ExactL1Backend backend(kStages, levels, DigitMetric::kL1);
      for (int r = 0; r < rows; ++r) backend.store(r % 2 == 0 ? zeros : maxes);
      const auto hits = backend.search_topk(maxes, rows);
      ASSERT_EQ(hits.entries.size(), static_cast<std::size_t>(rows));
      const int odd = rows / 2;  // rows 1, 3, ... score 0 and come first
      for (int i = 0; i < rows; ++i) {
        const TopKEntry want =
            i < odd ? TopKEntry{2 * i + 1, 0.0}
                    : TopKEntry{2 * (i - odd), static_cast<double>(max_score)};
        EXPECT_EQ(hits.entries[static_cast<std::size_t>(i)], want)
            << "levels=" << levels << " rows=" << rows << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace tdam::core
