// Per-layer metrics of the traced run.
//
// Two sources: the program's own instruments, read over the wire after the
// traced traffic (STATS v3, the Prometheus registry, the METRICS trace
// dump with every wire span), and the benchmark's replays, which time its
// own calls into each layer's public entry point on the workload's index
// and queries under SpanLog spans.  The replay must return the top-k the
// wire returned, so every layer is timed on the same work.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "core/digit_matrix.h"
#include "core/kernels/kernels.h"
#include "runtime/engine.h"

#include "bench.h"

namespace perfbench {

namespace {

using tdam::core::DigitMatrix;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kStoreReplayRows = 4096;
constexpr int kLoadReplays = 3;
constexpr double kReconcileTolerance = 0.20;

// A wire span from the METRICS trace dump, keyed by field name.
enum Field {
  kTraceId, kStatus, kAdmit, kBatchForm, kDispatch, kFulfill, kIoRecv,
  kDecode, kSubmitQueue, kCompletionWait, kEncode, kIoSend, kK, kFieldCount
};
constexpr const char* kFieldNames[kFieldCount] = {
    "trace_id", "status", "admit_ns", "batch_form_ns", "dispatch_ns",
    "fulfill_ns", "io_recv_ns", "decode_ns", "submit_queue_ns",
    "completion_wait_ns", "encode_ns", "io_send_ns", "k"};
using WireSpan = std::array<std::int64_t, kFieldCount>;

// Parses the first "spans" array of the trace dump: flat objects of
// integer (or boolean) fields.
std::unordered_map<std::uint64_t, WireSpan> parse_spans(const std::string& json) {
  std::unordered_map<std::uint64_t, WireSpan> spans;
  std::size_t at = json.find("\"spans\":[");
  if (at == std::string::npos) return spans;
  at += 9;
  while (at < json.size() && json[at] == '{') {
    WireSpan span;
    span.fill(-1);
    ++at;
    while (at < json.size() && json[at] != '}') {
      if (json[at] == ',') ++at;
      const std::size_t key_end = json.find('"', at + 1);
      const std::string key = json.substr(at + 1, key_end - at - 1);
      at = key_end + 2;  // past the closing quote and the colon
      char* end = nullptr;
      const long long value = std::strtoll(json.c_str() + at, &end, 10);
      if (end == json.c_str() + at) {  // true / false
        at = json.find_first_of(",}", at);
        continue;
      }
      at = static_cast<std::size_t>(end - json.c_str());
      for (int f = 0; f < kFieldCount; ++f)
        if (key == kFieldNames[f]) span[static_cast<std::size_t>(f)] = value;
    }
    ++at;  // '}'
    spans[static_cast<std::uint64_t>(span[kTraceId])] = span;
    if (at < json.size() && json[at] == ',') ++at;
  }
  return spans;
}

// Modeled hardware numbers are deterministic sums whose last bits depend
// on the order the engine threads add them in; nine significant digits
// make them repeat exactly.
double rounded(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return std::strtod(buf, nullptr);
}

std::vector<int> query_digits(const Inputs& inputs, std::int64_t query) {
  std::vector<std::uint8_t> q(static_cast<std::size_t>(inputs.stages()));
  inputs.query(query, q.data());
  return {q.begin(), q.end()};
}

// Prometheus text: the value of the first sample whose series (name plus
// labels) equals `series`; NaN when absent.
double prom_value(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > series.size() &&
        line.compare(0, series.size(), series) == 0 && line[series.size()] == ' ')
      return std::stod(line.substr(series.size() + 1));
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

double headline(const Spec& spec, const Traffic& traffic) {
  return spec.open_loop ? traffic.p50_ms() : traffic.qps();
}

double counter_value(const tdam::obs::MetricsRegistry& registry,
                     const std::string& name) {
  for (const tdam::obs::Counter* c : registry.counters())
    if (c->name() == name && c->labels().empty()) return c->value();
  throw std::runtime_error("no counter " + name);
}

int SpanLog::begin(const std::string& name, int parent, std::int64_t request) {
  spans_.push_back({name, parent, request, now_ns(), 0});
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t SpanLog::end(int span) {
  Span& s = spans_[static_cast<std::size_t>(span)];
  s.end_ns = now_ns();
  return s.end_ns - s.start_ns;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  // Self time: a span's duration minus the union of its children.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"span\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, std::pair<double, long>> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0, reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    auto& entry = self[spans_[i].name];
    entry.first += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns - covered) * 1e-9;
    ++entry.second;
  }
  std::fprintf(stderr, "perfbench: replay self time (spans written to %s)\n", path.c_str());
  for (const auto& [name, entry] : self)
    std::fprintf(stderr, "  %-44s %8ld spans %10.4f s\n", name.c_str(), entry.second,
                 entry.first);
}

std::vector<Metric> measure_layers(const LayerInputs& in, SpanLog& spans, Tally& tally) {
  const Spec& spec = in.spec;
  Stack& stack = in.stack;
  const Traffic& traffic = in.traffic;
  std::vector<Metric> out;
  const auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };

  // --- program instruments, over the wire ------------------------------------
  tdam::net::AmClient& client = stack.client(0);
  const auto stats = client.stats();
  const std::string prom = client.metrics(tdam::net::MetricsFormat::kPrometheus).text;
  const auto wire = parse_spans(client.metrics(tdam::net::MetricsFormat::kTraces).text);
  const auto snapshot = stack.server().metrics().snapshot();

  // --- replays ----------------------------------------------------------------
  const int root = spans.begin("replay", -1);

  int span = spans.begin("am::calibrate_chain", root);
  (void)calibrate();
  const double calibrate_s = static_cast<double>(spans.end(span)) * 1e-9;

  // The replay set: wire replies computed on the final index.
  std::vector<Check> replay = traffic.kept;
  const bool against_wire = !replay.empty();
  if (!against_wire) {
    std::fprintf(stderr, "perfbench: no traced reply saw the final index; the "
                         "replay is checked against the reference instead\n");
    for (int j = 0; j < 64 && j < static_cast<int>(traffic.queries.size()); ++j) {
      const QueryObs& o = traffic.queries[static_cast<std::size_t>(j)];
      replay.push_back({o.query, o.k, static_cast<std::uint64_t>(spec.wire_rows()), {}});
    }
  }
  const int levels = stack.index().levels();
  DigitMatrix queries(spec.stages, levels);
  for (const Check& c : replay) queries.append(query_digits(in.inputs, c.query));
  const int n = queries.rows();
  // Tiles: runs of equal k, at most the backend's query tile long.
  std::vector<std::pair<int, int>> tiles;
  for (int first = 0; first < n;) {
    int count = 1;
    while (first + count < n && count < stack.index().query_tile() &&
           replay[static_cast<std::size_t>(first + count)].k ==
               replay[static_cast<std::size_t>(first)].k)
      ++count;
    tiles.emplace_back(first, count);
    first += count;
  }
  const auto snap = stack.index().pin();
  const bool cosine = spec.metric == tdam::core::DigitMetric::kCosine;

  // core/kernels: the tile kernel over each segment's packed rows.
  double kernel_ns = 0.0, kernel_bytes = 0.0, kernel_rows = 0.0;
  const int kernels = spans.begin("replay.kernels", root);
  std::vector<std::int32_t> out32;
  std::vector<std::int64_t> out64;
  for (const auto& [first, count] : tiles) {
    for (const auto& shard : snap->shards) {
      for (const auto& segment : shard) {
        const DigitMatrix* rows = segment->backend().packed_view();
        if (rows == nullptr || rows->rows() == 0) continue;
        const auto cells = static_cast<std::size_t>(count) * static_cast<std::size_t>(rows->rows());
        span = spans.begin(cosine ? "kernels::dot_product_tile" : "kernels::mismatch_count_tile",
                           kernels, first);
        if (cosine) {
          out64.resize(cells);
          tdam::core::kernels::dot_product_tile(*rows, queries, first, count, out64, 0);
        } else {
          out32.resize(cells);
          tdam::core::kernels::mismatch_count_tile(*rows, queries, first, count, out32, 0);
        }
        kernel_ns += static_cast<double>(spans.end(span));
        kernel_bytes += static_cast<double>(rows->rows()) * static_cast<double>(rows->packed_row_bytes());
        kernel_rows += static_cast<double>(cells);
      }
    }
  }
  spans.end(kernels);

  // core backends: the packed batch search of each segment.
  double core_ns = 0.0;
  const int core = spans.begin("replay.core", root);
  for (const auto& [first, count] : tiles) {
    const int k = replay[static_cast<std::size_t>(first)].k;
    for (const auto& shard : snap->shards) {
      for (const auto& segment : shard) {
        span = spans.begin("SimilarityBackend::search_topk_packed_batch", core, first);
        const auto hits = segment->backend().search_topk_packed_batch(queries, first, count, k);
        core_ns += static_cast<double>(spans.end(span));
        if (hits.size() != static_cast<std::size_t>(count))
          throw std::runtime_error("backend replay returned the wrong batch size");
      }
    }
  }
  spans.end(core);

  // runtime/engine: one single-threaded submit_batch per k on the pinned
  // snapshot, so engine minus backend time is the merge and bookkeeping.
  double engine_ns = 0.0;
  long replay_wrong = 0;
  std::vector<Check> replayed = replay;
  tdam::runtime::SearchEngine engine(stack.index(), {.threads = 1});
  const int engine_span = spans.begin("replay.engine", root);
  std::map<int, std::vector<int>> by_k;
  for (int q = 0; q < n; ++q) by_k[replay[static_cast<std::size_t>(q)].k].push_back(q);
  for (const auto& [k, members] : by_k) {
    DigitMatrix batch(spec.stages, levels);
    for (const int q : members)
      batch.append(query_digits(in.inputs, replay[static_cast<std::size_t>(q)].query));
    span = spans.begin("SearchEngine::submit_batch", engine_span, k);
    const auto results = engine.submit_batch(snap, batch, k);
    engine_ns += static_cast<double>(spans.end(span));
    for (std::size_t m = 0; m < members.size(); ++m) {
      auto& check = replayed[static_cast<std::size_t>(members[m])];
      if (against_wire && results[m].entries != check.entries) ++replay_wrong;
      check.entries = results[m].entries;
    }
  }
  spans.end(engine_span);
  if (!against_wire) replay_wrong = verify(spec, in.inputs, replayed);
  if (replay_wrong > 0)
    std::fprintf(stderr, "perfbench: %ld replayed queries differ from the wire\n",
                 replay_wrong);
  tally.add(n, replay_wrong);

  // runtime/sharded_index: store the workload's own rows into a fresh index
  // (scan_large: its catch-up rows into the loaded file).
  const tdam::runtime::ShardedIndexOptions options{.backend = spec.backend,
                                                   .shards = spec.shards};
  double store_ns = 0.0;
  int stored = 0;
  {
    const int store_span = spans.begin("replay.index.store", root);
    auto fresh = in.index_file.empty()
                     ? std::make_unique<tdam::runtime::ShardedIndex>(stack.registry(), options)
                     : std::make_unique<tdam::runtime::ShardedIndex>(
                           tdam::runtime::ShardedIndex::load(stack.registry(), in.index_file, options));
    const int first = spec.file_rows;
    const int count = std::min(spec.wire_rows(), kStoreReplayRows);
    std::vector<std::uint8_t> row(static_cast<std::size_t>(spec.stages));
    std::vector<int> digits(row.size());
    for (int r = first; r < first + count; ++r) {
      in.inputs.row(r, row.data());
      std::copy(row.begin(), row.end(), digits.begin());
      span = spans.begin("ShardedIndex::store", store_span, r);
      const int id = fresh->store(digits);
      store_ns += static_cast<double>(spans.end(span));
      if (id != r) throw std::runtime_error("store replay assigned an unexpected row id");
      ++stored;
    }
    spans.end(store_span);
  }

  // runtime/sharded_index + core/index_io: the mmap load path.
  std::string load_path = in.index_file;
  if (load_path.empty()) {
    load_path = in.scratch_dir + "/" + spec.name + ".replay.tdam";
    stack.index().save(load_path);
  }
  const int file_rows = load_path == in.index_file ? spec.file_rows : stack.index().size();
  std::vector<double> load_ms;
  const int load_span = spans.begin("replay.index.load", root);
  for (int i = 0; i < kLoadReplays; ++i) {
    span = spans.begin("ShardedIndex::load", load_span, i);
    const auto loaded = tdam::runtime::ShardedIndex::load(stack.registry(), load_path, options);
    load_ms.push_back(static_cast<double>(spans.end(span)) * 1e-6);
    if (loaded.size() != file_rows) throw std::runtime_error("load replay lost rows");
  }
  spans.end(load_span);
  if (load_path != in.index_file) std::remove(load_path.c_str());
  spans.end(root);

  // --- wire spans joined with what the client saw ------------------------------
  enum Stage { kIoRecvS, kDecodeS, kSubmitQueueS, kAdmitS, kQueueWaitS, kBatchWaitS,
               kExecuteS, kCompletionWaitS, kEncodeS, kSendS, kStageCount };
  std::array<std::vector<double>, kStageCount> stage_us;
  std::vector<double> unattributed_us, client_us, completion_k_small_us;
  long joined = 0;
  for (const QueryObs& o : traffic.queries) {
    if (!o.ok) continue;
    const auto it = wire.find(o.trace_id);
    if (it == wire.end()) continue;
    const WireSpan& w = it->second;
    if (w[kStatus] != 0 || w[kIoSend] < 0 || w[kAdmit] < 0 || w[kDispatch] < 0) continue;
    ++joined;
    const std::array<std::int64_t, kStageCount> ns = {
        w[kIoRecv],
        w[kDecode] - w[kIoRecv],
        w[kSubmitQueue] - w[kDecode],
        w[kAdmit] - w[kSubmitQueue],
        w[kBatchForm] - w[kAdmit],
        w[kDispatch] - w[kBatchForm],
        w[kFulfill] - w[kDispatch],
        w[kCompletionWait] - w[kFulfill],
        w[kEncode] - w[kCompletionWait],
        w[kIoSend] - w[kEncode]};
    for (int s = 0; s < kStageCount; ++s)
      stage_us[static_cast<std::size_t>(s)].push_back(static_cast<double>(ns[static_cast<std::size_t>(s)]) * 1e-3);
    const auto client_ns = o.recv_ns - o.due_ns;
    client_us.push_back(static_cast<double>(client_ns) * 1e-3);
    unattributed_us.push_back(static_cast<double>(client_ns - w[kIoSend]) * 1e-3);
    if (o.k == spec.k_small)
      completion_k_small_us.push_back(static_cast<double>(ns[kCompletionWaitS]) * 1e-3);
  }
  // The stage medians plus the unattributed median should add up to the
  // client median.  They cannot match exactly (a sum of medians is not the
  // median of a sum); README.md states the tolerance.
  double stage_sum_p50 = median(unattributed_us);
  for (const auto& s : stage_us) stage_sum_p50 += median(s);
  const double reconcile = std::abs(stage_sum_p50 / median(client_us) - 1.0);
  std::fprintf(stderr,
               "perfbench: %ld of %zu traced queries joined to wire spans; stage "
               "p50 sum + unattributed p50 = %.1f us vs client p50 %.1f us (%s %.0f %%)\n",
               joined, traffic.queries.size(), stage_sum_p50, median(client_us),
               reconcile <= kReconcileTolerance ? "within" : "OUTSIDE",
               kReconcileTolerance * 100.0);

  // --- the metrics, in BENCHMARK.json order -------------------------------------
  const double q = static_cast<double>(n);
  const double queries_answered = static_cast<double>(snapshot.queries);
  const double traced = headline(spec, traffic);
  add("am.calibrate_s", calibrate_s, "s");
  add("model.latency_ns_per_query",
      rounded(snapshot.modeled_latency_total / queries_answered * 1e9), "model_ns");
  add("model.energy_pj_per_query",
      rounded(snapshot.modeled_energy_total / queries_answered * 1e12), "model_pJ");
  add("kernels.ns_per_row", kernel_ns / kernel_rows, "ns");
  add("kernels.gb_per_s", kernel_bytes / kernel_ns, "GB/s");
  add("kernels.roofline_frac", kernel_bytes / kernel_ns / in.host_read_gb_per_s, "ratio");
  add("core.search_us_per_query", core_ns / q * 1e-3, "us");
  add("core.select_us_per_query", (core_ns - kernel_ns) / q * 1e-3, "us");
  add("engine.us_per_query", engine_ns / q * 1e-3, "us");
  add("engine.merge_us_per_query", (engine_ns - core_ns) / q * 1e-3, "us");
  add("engine.scan_us_p50", stats.scan_p50_s * 1e6, "us");
  add("engine.scan_us_p99", stats.scan_p99_s * 1e6, "us");
  add("engine.merge_us_p50", stats.merge_p50_s * 1e6, "us");
  add("server.queue_wait_us_p50", stats.queue_wait_p50_s * 1e6, "us");
  add("server.queue_wait_us_p99", stats.queue_wait_p99_s * 1e6, "us");
  add("server.batch_wait_us_p50", stats.batch_wait_p50_s * 1e6, "us");
  add("server.batch_size_mean",
      prom_value(prom, "tdam_serving_batch_size_sum") /
          prom_value(prom, "tdam_serving_batch_size_count"),
      "count");
  add("server.degraded", static_cast<double>(stats.rejected + stats.shed + stats.expired),
      "count");
  add("net.submit_queue_us_p50", median(stage_us[kSubmitQueueS]), "us");
  add("net.submit_queue_us_p99", percentile(stage_us[kSubmitQueueS], 0.99), "us");
  add("net.completion_wait_us_p50", median(completion_k_small_us), "us");
  add("net.completion_wait_us_p99", percentile(completion_k_small_us, 0.99), "us");
  add("net.decode_us_p50", median(stage_us[kDecodeS]), "us");
  add("net.encode_us_p50", median(stage_us[kEncodeS]), "us");
  add("net.send_us_p50", median(stage_us[kSendS]), "us");
  add("net.unattributed_us_p50", median(unattributed_us), "us");
  add("net.reconcile_error_frac", reconcile, "ratio");
  const double measured = static_cast<double>(traffic.queries.size());
  add("net.bytes_in_per_query", in.bytes_in / measured, "B");
  add("net.bytes_out_per_query", in.bytes_out / measured, "B");
  std::vector<double> frame_ms = traffic.writes.frame_ms;
  if (frame_ms.empty()) frame_ms = stack.writes.frame_ms;
  add("index.store_us_per_row", store_ns / static_cast<double>(stored) * 1e-3, "us");
  add("index.store_batch_ms_p50", median(frame_ms), "ms");
  add("index.compactions", prom_value(prom, "tdam_serving_compactions_total"), "count");
  add("index.compaction_ms_total", prom_value(prom, "tdam_serving_compaction_seconds_sum") * 1e3,
      "ms");
  add("index.compacted_rows_per_row",
      prom_value(prom, "tdam_serving_compacted_rows_total") / static_cast<double>(spec.wire_rows()),
      "ratio");
  add("index.segments_end", prom_value(prom, "tdam_serving_segments"), "count");
  add("index.load_ms", median(load_ms), "ms");
  add("index.resident_mb", static_cast<double>(stack.index().resident_bytes()) / kMiB, "MiB");
  add("obs.trace_overhead_frac",
      spec.open_loop ? traced / in.untraced_headline - 1.0 : in.untraced_headline / traced - 1.0,
      "ratio");
  add("host.read_gb_per_s", in.host_read_gb_per_s, "GB/s");
  add("client.send_lag_us_p99", traffic.send_lag_us_p99(), "us");
  return out;
}

}  // namespace perfbench
