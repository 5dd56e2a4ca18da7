// The backend-agnostic similarity-search contract.
//
// Every score engine in this repo — the calibrated TD-AM model, the
// all-digital popcount comparator, the current-domain crossbar CAM, the
// pure-software reference, the cosine/dot-product similarity engines —
// answers the same question: store digit vectors, then return the k best
// stored rows to a query under a digit metric.  SimilarityBackend is that
// question as an interface, so the serving runtime (runtime::ShardedIndex /
// SearchEngine) can shard and batch over any of them interchangeably, and
// one bench run can compare TD-AM serving against its Table-I rivals on the
// identical workload.
//
// The score contract (Layer 0 invariant):
//  * every hit carries a double `score`;
//  * each metric declares its ordering direction (ScoreOrder) — distances
//    sort ascending (lower is better), similarities sort descending;
//  * ties break on the lower row index, so the total order
//    (score direction-aware, then row) is deterministic.  Every backend and
//    the runtime's cross-shard merge use exactly this order, which is what
//    makes results thread-count-, shard-count- and backend-invariant.
//
// Two cost views per backend:
//  * search_topk reports the backend's *native per-search* latency/energy
//    (e.g. the AM's slowest-chain delay), zero where no native model exists;
//  * query_cost is the QueryCostModel hook: modeled latency/energy/passes
//    for one full query over the currently stored rows on the backend's
//    physical array, given a measured mismatch fraction — what the serving
//    metrics aggregate.  Only mismatch-family metrics have a meaningful
//    mismatch fraction; similarity backends are always costed at 0.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace tdam::core {

// Which way a metric's scores sort: kAscending for distances (lower is
// better: mismatch count, L1), kDescending for similarities (higher is
// better: cosine, dot product).
enum class ScoreOrder {
  kAscending,
  kDescending,
};

// The digit metric a backend computes.  Backends sharing a metric are exact
// drop-in replacements for each other (identical (score, row) top-k);
// metrics only differ, never backends within one.  Enumerator values are
// the wire ids carried by v2 QUERY replies — append-only, never renumber.
enum class DigitMetric : std::uint8_t {
  kMismatchCount = 0,  // # of differing digits — the AM's native kernel
  kL1 = 1,             // sum |a-b| — what thermometer-coded storage realises
  kCosine = 2,         // dot/(|a||b|) over digit values — COSIME-style AM
  kDot = 3,            // raw integer dot product — the TD-CiM MVM primitive
};

// Sort direction of a metric's scores.
constexpr ScoreOrder metric_order(DigitMetric metric) {
  switch (metric) {
    case DigitMetric::kMismatchCount:
    case DigitMetric::kL1:
      return ScoreOrder::kAscending;
    case DigitMetric::kCosine:
    case DigitMetric::kDot:
      return ScoreOrder::kDescending;
  }
  return ScoreOrder::kAscending;  // unreachable; keeps -Wreturn-type quiet
}

// True for metrics whose mean score over the stored set is a digit-mismatch
// surrogate the hardware cost models understand (pulse-kill probability in
// the TD chains).  Similarity metrics must NOT be folded into those models.
constexpr bool metric_is_mismatch_family(DigitMetric metric) {
  return metric == DigitMetric::kMismatchCount || metric == DigitMetric::kL1;
}

// Stable lower-case metric name for logs, JSON and Prometheus labels.
const char* metric_name(DigitMetric metric);

// Inverse of the wire id in DigitMetric's enumerator values; throws
// std::invalid_argument on an id no metric claims.
DigitMetric metric_from_wire(std::uint8_t id);

// One (row, score) hit.
struct TopKEntry {
  int row = -1;
  double score = 0.0;

  friend bool operator==(const TopKEntry& a, const TopKEntry& b) {
    return a.row == b.row && a.score == b.score;
  }
};

// The deterministic total order on hits: score in the metric's direction,
// then lower row index.  This is THE order — every backend's top-k select
// (select_topk_counting, select_topk_heap) returns its hits in it, and the
// runtime's cross-shard merge sorts by it, never by a raw score compare.
constexpr bool score_before(const TopKEntry& a, const TopKEntry& b,
                            ScoreOrder order) {
  if (a.score != b.score) {
    return order == ScoreOrder::kAscending ? a.score < b.score
                                           : a.score > b.score;
  }
  return a.row < b.row;
}

// score_before as a stateful comparator for the <algorithm> sorts.
struct ScoreComparator {
  ScoreOrder order = ScoreOrder::kAscending;
  constexpr bool operator()(const TopKEntry& a, const TopKEntry& b) const {
    return score_before(a, b, order);
  }
};

// Top-k search outcome: min(k, rows) hits in (score direction-aware, row)
// order.  latency/energy are the backend's native per-search model (all
// rows are evaluated regardless of k); mean_score averages the metric's
// score over ALL rows.  For mismatch-family metrics that mean is the
// workload's mismatch level and feeds the HW cost models; for similarity
// metrics it is reporting-only.
struct BackendTopK {
  std::vector<TopKEntry> entries;
  double latency = 0.0;
  double energy = 0.0;
  double mean_score = 0.0;
};

// --- exact top-k select -----------------------------------------------------
// Every built-in backend's scan ends in one of these two selects, on its
// single-query and tiled paths alike.  Both return exactly the min(k, rows)
// hits a full sort under ScoreComparator would put first, plus mean_score
// over ALL rows, without ever building an entry per stored row.  Both throw
// std::invalid_argument on k < 1.

// Counting select for bounded integer scores in [0, max_score], ascending:
// mismatch counts and the behavioral TDC code (max_score = stages), L1
// distances (stages·(levels−1)).  Pass 1 counts the scores into
// max_score + 1 bins and sums them as an integer (mean_score = sum / rows).
// The threshold t is the smallest score whose cumulative count reaches
// min(k, rows).  Pass 2 walks the rows in index order and keeps every row
// scoring below t plus the first rows scoring t, placing each at the next
// slot of its score's bin — rows arrive in index order, so the result is
// already in (score, row) order with no comparator sort.  Throws
// std::invalid_argument on a score outside [0, max_score].
BackendTopK select_topk_counting(std::span<const std::int32_t> scores,
                                 int max_score, int k);

// Bounded-heap select for real-valued scores (dot, cosine) in either order.
// `score(r)` is called once per row r in [0, rows), in index order, and
// summed in that order as a double for mean_score.  The heap holds at most
// k entries under ScoreComparator, so its top is the worst kept hit; a row
// enters only if its score beats that hit's (on a tie the kept row has the
// lower index and wins).  sort_heap yields the final order.
template <typename ScoreFn>
BackendTopK select_topk_heap(int rows, int k, ScoreOrder order,
                             ScoreFn&& score) {
  if (k < 1) throw std::invalid_argument("select_topk_heap: k must be >= 1");
  BackendTopK out;
  const auto keep = static_cast<std::size_t>(std::min(k, std::max(rows, 0)));
  const ScoreComparator before{order};
  const bool ascending = order == ScoreOrder::kAscending;
  auto& heap = out.entries;
  heap.reserve(keep);
  double sum = 0.0;
  for (int r = 0; r < rows; ++r) {
    const double s = score(r);
    sum += s;
    if (heap.size() < keep) {
      heap.push_back({r, s});
      std::push_heap(heap.begin(), heap.end(), before);
    } else if (ascending ? s < heap.front().score : s > heap.front().score) {
      std::pop_heap(heap.begin(), heap.end(), before);
      heap.back() = {r, s};
      std::push_heap(heap.begin(), heap.end(), before);
    }
  }
  if (rows > 0) out.mean_score = sum / static_cast<double>(rows);
  std::sort_heap(heap.begin(), heap.end(), before);
  return out;
}

// Modeled cost of one query over the stored set on the backend's physical
// array (folded into `passes` sequential array passes when the set exceeds
// one array).
struct QueryCost {
  double latency = 0.0;  // s
  double energy = 0.0;   // J
  int passes = 0;
};

// Memory-hierarchy tuning for the packed exhaustive scans: how many queries
// of a batch ride one streaming pass over the stored rows (query_tile), and
// how many stored rows form one cache-resident block (row_block; 0 = auto,
// ~256 KiB of packed payload).  Pure performance knobs — results are
// bit-identical for any values.
struct ScanOptions {
  int query_tile = 8;
  int row_block = 0;
};

class SimilarityBackend {
 public:
  virtual ~SimilarityBackend() = default;

  virtual std::string name() const = 0;
  virtual DigitMetric metric() const = 0;
  virtual int stages() const = 0;  // digits per stored vector
  virtual int levels() const = 0;  // digit alphabet size
  virtual int rows() const = 0;

  // The metric's sort direction; what every consumer should order by.
  ScoreOrder order() const { return metric_order(metric()); }

  // Stores one vector of stages() digits in [0, levels()); returns the new
  // row index.  Throws std::invalid_argument on wrong length or
  // out-of-range digits.
  virtual int store(std::span<const int> digits) = 0;
  virtual void clear() = 0;

  // Read-back of a stored row (snapshots re-shard through this, so packed
  // backends need no duplicate unpacked copy).
  virtual std::vector<int> row_digits(int row) const = 0;

  // The min(k, rows()) best stored rows in (score, row) order; k must be
  // >= 1.
  virtual BackendTopK search_topk(std::span<const int> query,
                                  int k) const = 0;

  // Packed-query fast path: `packed` holds the query packed exactly as a
  // DigitMatrix(stages(), levels()) packs a row (see DigitMatrix::pack).
  // The serving engine hands packed batch rows straight through here, so
  // the hot path never unpacks and re-packs digits.  The default decodes
  // the digits and delegates to search_topk; packed backends override it to
  // feed the kernel batch API directly.  Throws std::invalid_argument on a
  // wrong packed word count.
  virtual BackendTopK search_topk_packed(std::span<const std::uint32_t> packed,
                                         int k) const;

  // Multi-query packed fast path: answers query rows [first, first+count)
  // of `queries` (packed exactly as this backend packs rows), one
  // BackendTopK per query in batch order.  The contract is bit-identical
  // results to `count` search_topk_packed calls — this hook exists so
  // packed backends can stream each stored row block once per query tile
  // (see exhaustive_topk_packed_batch) instead of once per query.  The
  // default does exactly the per-query loop, so custom backends stay
  // correct without opting in.
  virtual std::vector<BackendTopK> search_topk_packed_batch(
      const class DigitMatrix& queries, int first, int count, int k) const;

  // How many queries the serving engine should group into one
  // search_topk_packed_batch call.  Backends whose batch path is the
  // default per-query loop report 1 (no reuse to exploit); tiled backends
  // report their ScanOptions::query_tile.
  virtual int query_tile() const { return 1; }

  // Replaces the stored set wholesale with `matrix`, which must match this
  // backend's geometry (stages/levels fix the packing) — the mmap load
  // path.  The default unpacks and re-stores row by row, correct for any
  // backend; packed backends override with a move (plus any cache rebuild,
  // e.g. cosine norms) so loading a multi-GB segment is O(rows) integer
  // work at worst, never a digit-by-digit revalidation.  Throws
  // std::invalid_argument on a geometry mismatch.
  virtual void adopt_matrix(class DigitMatrix matrix);

  // The backend's packed row store when it keeps one (every built-in does)
  // — what index persistence snapshots without unpacking a single digit.
  // nullptr means "no packed matrix"; savers then re-pack via row_digits.
  virtual const class DigitMatrix* packed_view() const { return nullptr; }

  // QueryCostModel hook: modeled hardware cost of one query over the
  // current rows() at the given average digit-mismatch fraction.  Callers
  // must pass 0.0 for non-mismatch-family metrics (the fraction is
  // meaningless there); see metric_is_mismatch_family.
  virtual QueryCost query_cost(double mismatch_fraction) const = 0;

  // Bytes resident for the stored set (packed payload + bookkeeping).
  virtual std::size_t resident_bytes() const = 0;
};

// THE canonical cosine score: dot/(|a||b|) from the integer dot product and
// integer squared norms, 0.0 when either vector is all-zero.  Every cosine
// path (CosineBackend, exhaustive_topk, test references) must go through
// this one expression so the double rounding is identical everywhere and
// (score, row) order stays bit-identical across threads, shards and
// compaction.
inline double cosine_score(std::int64_t dot, std::int64_t a_norm_sq,
                           std::int64_t b_norm_sq) {
  if (a_norm_sq == 0 || b_norm_sq == 0) return 0.0;
  return static_cast<double>(dot) /
         (std::sqrt(static_cast<double>(a_norm_sq)) *
          std::sqrt(static_cast<double>(b_norm_sq)));
}

// Sum of squared digit values over one row of packed words (the final
// word's unused fields masked out) — the integer norm input of
// cosine_score.  `bits`/`tail_mask` come from the owning DigitMatrix.
std::int64_t packed_norm_sq(std::span<const std::uint32_t> words, int bits,
                            std::uint32_t tail_mask);

// The cosine finalizer over one query's dot-product column, shared by the
// exhaustive scans and CosineBackend: select_topk_heap, descending, scoring
// row r as cosine_score(dots[r], row_sq[r], query_sq).
BackendTopK select_topk_cosine(std::span<const std::int64_t> dots,
                               std::span<const std::int64_t> row_sq,
                               std::int64_t query_sq, int k);

// Shared brute-force scan for exact backends: scores from `matrix` under
// `metric`, deterministic (score, row) order in the metric's direction,
// mean over all rows.  The whole scan goes through the dispatched kernel
// layer (core::kernels::active()) — one row-blocked batch call, not a
// per-row word loop.
BackendTopK exhaustive_topk(const class DigitMatrix& matrix,
                            std::span<const int> query, int k,
                            DigitMetric metric);

// Same scan for a query already packed as `matrix` packs rows (the serving
// engine's zero-unpack path).
BackendTopK exhaustive_topk_packed(const class DigitMatrix& matrix,
                                   std::span<const std::uint32_t> packed,
                                   int k, DigitMetric metric);

// Throws std::invalid_argument (naming both geometries) unless `matrix`
// matches `backend`'s stages/levels exactly — the adopt_matrix precondition
// every override shares.
void check_adopt_geometry(const SimilarityBackend& backend,
                          const class DigitMatrix& matrix, const char* who);

// Query-block tiled scan: answers query rows [first, first+count) of
// `queries` against `matrix` under `metric`, streaming each row block of
// the stored set once per tile (kernels::*_tile) instead of once per
// query.  Bit-identical to count exhaustive_topk_packed calls for any
// ScanOptions; for kCosine the stored-row norms are computed once per call
// instead of once per query.
std::vector<BackendTopK> exhaustive_topk_packed_batch(
    const class DigitMatrix& matrix, const class DigitMatrix& queries,
    int first, int count, int k, DigitMetric metric,
    const ScanOptions& scan = {});

// ---------------------------------------------------------------------------
// Pre-redesign integer-distance API, kept as thin adapters so out-of-tree
// callers keep compiling during migration.  In-tree code must not use these
// (scripts/check_no_deprecated_calls.py enforces it in ctest); they truncate
// double scores to int and only make sense for mismatch-family metrics.

struct LegacyTopKEntry {
  int row = -1;
  int distance = 0;
};

struct LegacyTopK {
  std::vector<LegacyTopKEntry> entries;
  double latency = 0.0;
  double energy = 0.0;
  double mean_distance = 0.0;
};

[[deprecated("use SimilarityBackend::search_topk; scores are double now")]]
LegacyTopK search_topk_int(const SimilarityBackend& backend,
                           std::span<const int> query, int k);

[[deprecated(
    "use SimilarityBackend::search_topk_packed; scores are double now")]]
LegacyTopK search_topk_packed_int(const SimilarityBackend& backend,
                                  std::span<const std::uint32_t> packed,
                                  int k);

}  // namespace tdam::core
