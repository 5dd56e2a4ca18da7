// The correctness gate: brute-force top-k from regenerated inputs with a
// plain digit loop.  It never calls the program's kernels or backends; the
// only program function it uses is core::cosine_score, the canonical
// rounding every cosine path must share.
#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

namespace {

using tdam::core::TopKEntry;

struct Pending {
  const Check* check = nullptr;
  std::vector<std::uint8_t> digits;
  std::int64_t norm_sq = 0;
  std::int64_t limit = 0;          // rows visible at the check's generation
  std::vector<TopKEntry> heap;     // worst kept entry on top
};

}  // namespace

long verify(const Spec& spec, const Inputs& inputs,
            const std::vector<Check>& checks) {
  const int n = spec.stages;
  const auto order = tdam::core::metric_order(spec.metric);
  const auto better = [order](const TopKEntry& a, const TopKEntry& b) {
    return tdam::core::score_before(a, b, order);
  };
  std::vector<Pending> pending(checks.size());
  std::int64_t max_limit = 0;
  for (std::size_t c = 0; c < checks.size(); ++c) {
    Pending& p = pending[c];
    p.check = &checks[c];
    p.digits.resize(static_cast<std::size_t>(n));
    inputs.query(checks[c].query, p.digits.data());
    for (const std::uint8_t d : p.digits) p.norm_sq += d * d;
    p.limit = std::min<std::int64_t>(
        spec.rows_total(),
        spec.file_rows + static_cast<std::int64_t>(checks[c].generation));
    p.heap.reserve(static_cast<std::size_t>(checks[c].k));
    max_limit = std::max(max_limit, p.limit);
  }

  constexpr std::int64_t kBlock = 512;
  std::vector<std::uint8_t> block(static_cast<std::size_t>(kBlock * n));
  std::vector<std::int64_t> row_norm(kBlock);
  for (std::int64_t first = 0; first < max_limit; first += kBlock) {
    const std::int64_t rows = std::min(kBlock, max_limit - first);
    for (std::int64_t r = 0; r < rows; ++r) {
      std::uint8_t* row = block.data() + r * n;
      inputs.row(first + r, row);
      std::int64_t sq = 0;
      for (int j = 0; j < n; ++j) sq += row[j] * row[j];
      row_norm[static_cast<std::size_t>(r)] = sq;
    }
    for (Pending& p : pending) {
      const std::int64_t end = std::min(rows, p.limit - first);
      const auto k = static_cast<std::size_t>(p.check->k);
      for (std::int64_t r = 0; r < end; ++r) {
        const std::uint8_t* row = block.data() + r * n;
        TopKEntry e{static_cast<int>(first + r), 0.0};
        if (spec.metric == tdam::core::DigitMetric::kCosine) {
          std::int64_t dot = 0;
          for (int j = 0; j < n; ++j) dot += row[j] * p.digits[static_cast<std::size_t>(j)];
          e.score = tdam::core::cosine_score(
              dot, row_norm[static_cast<std::size_t>(r)], p.norm_sq);
        } else {
          int mismatches = 0;
          for (int j = 0; j < n; ++j)
            mismatches += row[j] != p.digits[static_cast<std::size_t>(j)];
          e.score = mismatches;
        }
        if (p.heap.size() < k) {
          p.heap.push_back(e);
          std::push_heap(p.heap.begin(), p.heap.end(), better);
        } else if (better(e, p.heap.front())) {
          std::pop_heap(p.heap.begin(), p.heap.end(), better);
          p.heap.back() = e;
          std::push_heap(p.heap.begin(), p.heap.end(), better);
        }
      }
    }
  }

  long wrong = 0;
  for (Pending& p : pending) {
    std::sort_heap(p.heap.begin(), p.heap.end(), better);
    if (p.heap == p.check->entries) continue;
    if (++wrong <= 3) {
      std::size_t at = 0;
      while (at < p.heap.size() && at < p.check->entries.size() &&
             p.heap[at] == p.check->entries[at])
        ++at;
      std::fprintf(stderr,
                   "perfbench: WRONG ANSWER query %lld k=%d generation %llu: "
                   "%zu entries, expected %zu; first difference at %zu\n",
                   static_cast<long long>(p.check->query), p.check->k,
                   static_cast<unsigned long long>(p.check->generation),
                   p.check->entries.size(), p.heap.size(), at);
    }
  }
  return wrong;
}

}  // namespace perfbench
