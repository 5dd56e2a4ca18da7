#include "core/backend.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/digit_matrix.h"
#include "core/kernels/kernels.h"

namespace tdam::core {

const char* metric_name(DigitMetric metric) {
  switch (metric) {
    case DigitMetric::kMismatchCount:
      return "mismatch";
    case DigitMetric::kL1:
      return "l1";
    case DigitMetric::kCosine:
      return "cosine";
    case DigitMetric::kDot:
      return "dot";
  }
  return "unknown";
}

DigitMetric metric_from_wire(std::uint8_t id) {
  switch (id) {
    case 0:
      return DigitMetric::kMismatchCount;
    case 1:
      return DigitMetric::kL1;
    case 2:
      return DigitMetric::kCosine;
    case 3:
      return DigitMetric::kDot;
    default:
      throw std::invalid_argument("metric_from_wire: unknown metric id " +
                                  std::to_string(int{id}));
  }
}

std::int64_t packed_norm_sq(std::span<const std::uint32_t> words, int bits,
                            std::uint32_t tail_mask) {
  const std::uint32_t field_mask = (bits == 32) ? ~0u : ((1u << bits) - 1u);
  std::int64_t sum = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint32_t word = words[w];
    if (w == words.size() - 1) word &= tail_mask;
    for (int off = 0; off < 32; off += bits) {
      const auto field = static_cast<std::int64_t>((word >> off) & field_mask);
      sum += field * field;
    }
  }
  return sum;
}

namespace {

// The counting select's range error, kept out of its hot loop.
[[noreturn, gnu::cold]] void throw_score_outside(std::int32_t score,
                                                 int max_score) {
  throw std::invalid_argument("select_topk_counting: score " +
                              std::to_string(score) + " outside [0, " +
                              std::to_string(max_score) + "]");
}

// The largest score `metric` can give a row of `matrix`: the counting
// select's bin bound for the mismatch family.
int max_distance(const DigitMatrix& matrix, DigitMetric metric) {
  return metric == DigitMetric::kMismatchCount
             ? matrix.cols()
             : matrix.cols() * (matrix.levels() - 1);
}

BackendTopK select_topk_dots(std::span<const std::int64_t> dots, int k) {
  return select_topk_heap(static_cast<int>(dots.size()), k,
                          ScoreOrder::kDescending, [&](int r) {
                            return static_cast<double>(
                                dots[static_cast<std::size_t>(r)]);
                          });
}

std::vector<std::int64_t> row_norms_sq(const DigitMatrix& matrix) {
  std::vector<std::int64_t> row_sq(static_cast<std::size_t>(matrix.rows()));
  for (int r = 0; r < matrix.rows(); ++r)
    row_sq[static_cast<std::size_t>(r)] = packed_norm_sq(
        matrix.row_words(r), matrix.bits_per_digit(), matrix.tail_mask());
  return row_sq;
}

}  // namespace

BackendTopK select_topk_counting(std::span<const std::int32_t> scores,
                                 int max_score, int k) {
  if (k < 1)
    throw std::invalid_argument("select_topk_counting: k must be >= 1");
  if (max_score < 0)
    throw std::invalid_argument("select_topk_counting: max_score must be >= 0");
  BackendTopK out;
  const std::size_t rows = scores.size();
  if (rows == 0) return out;
  // Pass 1: count every score into its bin and sum them exactly.
  const auto top = static_cast<std::uint32_t>(max_score);
  std::vector<std::uint32_t> bins(static_cast<std::size_t>(max_score) + 1);
  std::int64_t sum = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto s = static_cast<std::uint32_t>(scores[r]);
    if (s > top) throw_score_outside(scores[r], max_score);
    ++bins[s];
    sum += s;
  }
  out.mean_score = static_cast<double>(sum) / static_cast<double>(rows);
  // Threshold t: the smallest score whose cumulative count reaches keep.
  // Each bin up to t becomes the output slot of its score's first row.
  const auto keep = static_cast<std::uint32_t>(
      std::min(static_cast<std::size_t>(k), rows));
  std::uint32_t below = 0;  // rows scoring < t
  std::int32_t t = 0;
  for (;; ++t) {
    const std::uint32_t count = bins[static_cast<std::size_t>(t)];
    bins[static_cast<std::size_t>(t)] = below;
    if (below + count >= keep) break;
    below += count;
  }
  // Pass 2: rows below t fill their bins exactly; rows at t fill
  // [below, keep) in index order and the rest of them are dropped.
  out.entries.resize(keep);
  std::uint32_t left = keep;
  for (std::size_t r = 0; left > 0; ++r) {
    const std::int32_t s = scores[r];
    if (s > t) continue;
    auto& slot = bins[static_cast<std::size_t>(s)];
    if (slot == keep) continue;  // a row at t past the last free slot
    out.entries[slot++] = {static_cast<int>(r), static_cast<double>(s)};
    --left;
  }
  return out;
}

BackendTopK select_topk_cosine(std::span<const std::int64_t> dots,
                               std::span<const std::int64_t> row_sq,
                               std::int64_t query_sq, int k) {
  return select_topk_heap(
      static_cast<int>(dots.size()), k, ScoreOrder::kDescending,
      [&](int r) {
        const auto i = static_cast<std::size_t>(r);
        return cosine_score(dots[i], row_sq[i], query_sq);
      });
}

BackendTopK exhaustive_topk_packed(const DigitMatrix& matrix,
                                   std::span<const std::uint32_t> packed,
                                   int k, DigitMetric metric) {
  if (k < 1)
    throw std::invalid_argument("exhaustive_topk: k must be >= 1");
  const int rows = matrix.rows();
  if (metric_is_mismatch_family(metric)) {
    std::vector<std::int32_t> dist(static_cast<std::size_t>(rows));
    if (metric == DigitMetric::kMismatchCount) {
      kernels::mismatch_count_batch(matrix, packed, dist);
    } else {
      kernels::l1_distance_batch(matrix, packed, dist);
    }
    return select_topk_counting(dist, max_distance(matrix, metric), k);
  }
  std::vector<std::int64_t> dots(static_cast<std::size_t>(rows));
  kernels::dot_product_batch(matrix, packed, dots);
  if (metric == DigitMetric::kDot) return select_topk_dots(dots, k);
  // kCosine
  const std::int64_t query_sq =
      packed_norm_sq(packed, matrix.bits_per_digit(), matrix.tail_mask());
  return select_topk_cosine(dots, row_norms_sq(matrix), query_sq, k);
}

std::vector<BackendTopK> exhaustive_topk_packed_batch(
    const DigitMatrix& matrix, const DigitMatrix& queries, int first,
    int count, int k, DigitMetric metric, const ScanOptions& scan) {
  if (k < 1)
    throw std::invalid_argument(
        "exhaustive_topk_packed_batch: k must be >= 1");
  const auto rows = static_cast<std::size_t>(matrix.rows());
  std::vector<BackendTopK> out;
  out.reserve(static_cast<std::size_t>(count > 0 ? count : 0));
  if (metric_is_mismatch_family(metric)) {
    std::vector<std::int32_t> dist(static_cast<std::size_t>(count) * rows);
    if (metric == DigitMetric::kMismatchCount) {
      kernels::mismatch_count_tile(matrix, queries, first, count, dist,
                                   scan.row_block);
    } else {
      kernels::l1_distance_tile(matrix, queries, first, count, dist,
                                scan.row_block);
    }
    const int max_score = max_distance(matrix, metric);
    for (int q = 0; q < count; ++q)
      out.push_back(select_topk_counting(
          std::span<const std::int32_t>(dist).subspan(
              static_cast<std::size_t>(q) * rows, rows),
          max_score, k));
    return out;
  }
  std::vector<std::int64_t> dots(static_cast<std::size_t>(count) * rows);
  kernels::dot_product_tile(matrix, queries, first, count, dots,
                            scan.row_block);
  const auto column = [&](int q) {
    return std::span<const std::int64_t>(dots).subspan(
        static_cast<std::size_t>(q) * rows, rows);
  };
  if (metric == DigitMetric::kDot) {
    for (int q = 0; q < count; ++q)
      out.push_back(select_topk_dots(column(q), k));
    return out;
  }
  // kCosine: stored-row norms are tile-invariant — compute them once per
  // call, not once per query.
  const auto row_sq = row_norms_sq(matrix);
  for (int q = 0; q < count; ++q) {
    const std::int64_t query_sq =
        packed_norm_sq(queries.row_words(first + q), matrix.bits_per_digit(),
                       matrix.tail_mask());
    out.push_back(select_topk_cosine(column(q), row_sq, query_sq, k));
  }
  return out;
}

BackendTopK exhaustive_topk(const DigitMatrix& matrix,
                            std::span<const int> query, int k,
                            DigitMetric metric) {
  // pack() validates digit count and range for every metric, including on
  // an empty store.
  const auto packed = matrix.pack(query);
  return exhaustive_topk_packed(matrix, packed, k, metric);
}

BackendTopK SimilarityBackend::search_topk_packed(
    std::span<const std::uint32_t> packed, int k) const {
  // Generic fallback: decode the packed fields (stages()/levels() fix the
  // packing exactly as DigitMatrix does) and run the unpacked search.
  const int bits = DigitMatrix::field_bits(levels());
  const int dpw = 32 / bits;
  const int expect_words = (stages() + dpw - 1) / dpw;
  if (packed.size() != static_cast<std::size_t>(expect_words))
    throw std::invalid_argument(
        "SimilarityBackend::search_topk_packed: query has " +
        std::to_string(packed.size()) + " packed words, expected " +
        std::to_string(expect_words));
  const std::uint32_t field_mask =
      (bits == 32) ? ~0u : ((std::uint32_t{1} << bits) - 1u);
  std::vector<int> digits(static_cast<std::size_t>(stages()));
  for (int c = 0; c < stages(); ++c) {
    const std::uint32_t word = packed[static_cast<std::size_t>(c / dpw)];
    digits[static_cast<std::size_t>(c)] =
        static_cast<int>((word >> ((c % dpw) * bits)) & field_mask);
  }
  return search_topk(digits, k);
}

std::vector<BackendTopK> SimilarityBackend::search_topk_packed_batch(
    const DigitMatrix& queries, int first, int count, int k) const {
  // Generic fallback: the per-query loop the tiled overrides must be
  // bit-identical to.
  if (first < 0 || count < 0 || first + count > queries.rows())
    throw std::invalid_argument(
        "SimilarityBackend::search_topk_packed_batch: query range [" +
        std::to_string(first) + ", " + std::to_string(first + count) +
        ") outside the batch's " + std::to_string(queries.rows()) + " rows");
  std::vector<BackendTopK> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int q = 0; q < count; ++q)
    out.push_back(search_topk_packed(queries.row_words(first + q), k));
  return out;
}

void check_adopt_geometry(const SimilarityBackend& backend,
                          const DigitMatrix& matrix, const char* who) {
  if (matrix.cols() != backend.stages() ||
      matrix.levels() != backend.levels())
    throw std::invalid_argument(
        std::string(who) + ": matrix holds " + std::to_string(matrix.cols()) +
        "-digit rows over " + std::to_string(matrix.levels()) +
        " levels, backend stores " + std::to_string(backend.stages()) +
        " digits over " + std::to_string(backend.levels()) + " levels");
}

void SimilarityBackend::adopt_matrix(DigitMatrix matrix) {
  // Generic fallback: replay the rows through store().  Correct for any
  // backend (including ones with derived per-row state); packed backends
  // override with a move.
  check_adopt_geometry(*this, matrix, "SimilarityBackend::adopt_matrix");
  clear();
  std::vector<int> digits(static_cast<std::size_t>(stages()));
  for (int r = 0; r < matrix.rows(); ++r) {
    matrix.unpack_row_into(r, digits);
    store(digits);
  }
}

// --- deprecated integer-distance adapters ----------------------------------
// The definitions themselves must reference the deprecated declarations, so
// silence the self-inflicted warning locally.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace {

LegacyTopK to_legacy(BackendTopK modern) {
  LegacyTopK out;
  out.entries.reserve(modern.entries.size());
  for (const auto& e : modern.entries)
    out.entries.push_back({e.row, static_cast<int>(e.score)});
  out.latency = modern.latency;
  out.energy = modern.energy;
  out.mean_distance = modern.mean_score;
  return out;
}

}  // namespace

LegacyTopK search_topk_int(const SimilarityBackend& backend,
                           std::span<const int> query, int k) {
  return to_legacy(backend.search_topk(query, k));
}

LegacyTopK search_topk_packed_int(const SimilarityBackend& backend,
                                  std::span<const std::uint32_t> packed,
                                  int k) {
  return to_legacy(backend.search_topk_packed(packed, k));
}

#pragma GCC diagnostic pop

}  // namespace tdam::core
