// Shared types of the serving benchmark: workload specs, seeded inputs,
// the self-hosted serving stack, the traffic it is driven with, and the
// metric/span records the run reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "am/calibration.h"
#include "core/backend.h"
#include "core/registry.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "obs/trace.h"
#include "runtime/server.h"
#include "runtime/sharded_index.h"

namespace perfbench {

inline std::int64_t now_ns() { return tdam::obs::steady_now_ns(); }

enum class Workload { kServeMixed, kScanLarge, kIngestLive };

// Everything that defines one workload.  Sizes are fixed here and never
// depend on the seed, so every commit runs the same amount of work.
struct Spec {
  Workload id = Workload::kServeMixed;
  std::string name;
  std::string backend;
  tdam::core::DigitMetric metric = tdam::core::DigitMetric::kMismatchCount;
  int stages = 0;          // two-bit digits per row
  int shards = 2;
  int engine_threads = 2;
  int file_rows = 0;       // rows written to an index file and loaded
  int build_rows = 0;      // STORE_BATCH rows before the first query
  int catchup_rows = 0;    // STORE_BATCH rows right after set-up
  int live_rows = 0;       // STORE_BATCH rows beside the measured reads
  bool open_loop = true;
  double rate_qps = 0.0;   // open loop: Poisson arrival rate
  double seconds = 10.0;   // open loop: schedule length
  int connections = 1;     // query connections
  int in_flight = 0;       // closed loop: queries in flight per connection
  int closed_queries = 0;  // closed loop: fixed query count
  int k_small = 10;
  int k_large = 0;         // > 0: 5 % of queries ask for this many rows
  int check_every = 32;    // one reply in this many is checked
  int wire_rows() const { return build_rows + catchup_rows + live_rows; }
  int rows_total() const { return file_rows + wire_rows(); }
  int writers() const { return live_rows > 0 ? 1 : 0; }
  int loadgen_threads() const {
    return (open_loop ? 2 * connections : connections) + writers();
  }
};

// Throws std::invalid_argument on an unknown workload name.
Spec make_spec(const std::string& name, double seconds);

constexpr int kStoreBatchRows = 32;
// Query index spaces: phase p's n-th measured query is p * kPhaseStride + n;
// set-up probes are kProbeBase + n.  No two indices give the same query.
constexpr std::int64_t kPhaseStride = std::int64_t{1} << 24;
constexpr std::int64_t kProbeBase = std::int64_t{1} << 30;

// Seeded, counter-based inputs: any row or query is regenerated from
// (seed, index) alone, so the benchmark never holds a copy of the stored
// set next to the index it measures.
class Inputs {
 public:
  Inputs(const Spec& spec, std::uint64_t seed);
  int stages() const { return spec_.stages; }
  // Stored row with global id r: stages() digits in [0, 4).
  void row(std::int64_t r, std::uint8_t* out) const;
  void query(std::int64_t i, std::uint8_t* out) const;
  int k(std::int64_t i) const;
  // Open-loop arrival offsets (seconds from the phase start).
  std::vector<double> schedule(int phase) const;

 private:
  void uniform(std::uint64_t key, std::int64_t index, std::uint8_t* out) const;
  void resample(std::uint64_t mask_key, std::uint64_t value_key,
                std::int64_t index, unsigned threshold,
                std::uint8_t* out) const;

  Spec spec_;
  std::uint64_t seed_;
  std::vector<std::uint8_t> centres_;  // scan_large: cluster centres
};

// Attempted / failed operation counts (queries and STORE_BATCH frames).
struct Tally {
  std::atomic<long> attempted{0};
  std::atomic<long> failed{0};
  void add(long n, long bad) {
    attempted += n;
    failed += bad;
  }
};

// One reply the run checks against the brute-force reference.
struct Check {
  std::int64_t query = 0;
  int k = 0;
  std::uint64_t generation = 0;
  std::vector<tdam::core::TopKEntry> entries;
};

// Brute-force top-k over the rows visible at each check's generation,
// from regenerated inputs with a plain digit loop.  Returns the number of
// checks whose reply differs; describes the first few on stderr.
long verify(const Spec& spec, const Inputs& inputs,
            const std::vector<Check>& checks);

// STORE_BATCH writer log.
struct WriteLog {
  long frames = 0;
  long failed = 0;
  long rows = 0;
  std::int64_t first_send_ns = -1;
  std::int64_t last_ack_ns = -1;
  std::vector<double> frame_ms;
  double rows_per_s() const;
};

// One measured query as the client saw it.
struct QueryObs {
  std::int64_t query = 0;
  int k = 0;
  std::int64_t due_ns = -1;   // when it was due to be sent
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;  // -1: no reply
  std::uint64_t trace_id = 0;
  std::uint64_t generation = 0;
  bool ok = false;            // kOk, right metric, right row count
};

// The serving stack of one set-up: calibration, registry, index, AmServer,
// AmTcpServer, the client connections and the build writes, in that order,
// timed from the first step to the first answered query.  Catch-up writes
// follow the set-up.
class Stack {
 public:
  Stack(const Spec& spec, const Inputs& inputs, const std::string& index_file,
        const tdam::obs::TraceConfig& trace, int probe, Tally& tally);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const tdam::core::BackendRegistry& registry() const { return registry_; }
  tdam::runtime::ShardedIndex& index() { return *index_; }
  tdam::runtime::AmServer& server() { return *server_; }
  tdam::net::AmClient& client(int c) { return *clients_[static_cast<std::size_t>(c)]; }

  double setup_s = 0.0;
  WriteLog writes;  // build or catch-up rows
  Check probe;

 private:
  tdam::core::BackendRegistry registry_;
  std::unique_ptr<tdam::runtime::ShardedIndex> index_;
  std::unique_ptr<tdam::runtime::AmServer> server_;
  std::unique_ptr<tdam::net::AmTcpServer> tcp_;
  std::vector<std::unique_ptr<tdam::net::AmClient>> clients_;
};

// The calibration every set-up runs: am::calibrate_chain on the default
// chain at 2 bits with a fixed seed.
tdam::am::CalibrationResult calibrate();

// Stores global rows [first, first + count) through `client` as
// STORE_BATCH frames, one in flight.
void store_rows(tdam::net::AmClient& client, const Spec& spec,
                const Inputs& inputs, std::int64_t first, std::int64_t count,
                WriteLog& log);

struct Traffic {
  std::vector<QueryObs> queries;
  std::vector<Check> checks;   // sampled replies for the reference
  std::vector<Check> kept;     // traced phase: replies the replay compares
  WriteLog writes;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  // Headline numbers of this traffic.
  double p50_ms() const;
  double p99_ms() const;
  double qps() const;
  double send_lag_us_p99() const;
};

// Drives the workload's measured traffic against `stack`.  `keep` > 0
// keeps up to that many full replies for the traced replay.
Traffic run_traffic(Stack& stack, const Spec& spec, const Inputs& inputs,
                    int phase, int keep, Tally& tally);

// Writes the scan_large index file: one segment per shard.
void write_index_file(const Spec& spec, const Inputs& inputs,
                      const std::string& path);

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The benchmark's own spans around each call it makes into a layer.
class SpanLog {
 public:
  int begin(const std::string& name, int parent, std::int64_t request = -1);
  // Closes the span; returns its duration in ns.
  std::int64_t end(int span);
  // Writes one JSON object per span, then each name's total self time
  // (its spans minus the time their children cover) to stderr.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t request = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<Span> spans_;
};

struct LayerInputs {
  const Spec& spec;
  const Inputs& inputs;
  Stack& stack;
  const Traffic& traffic;
  const std::string& index_file;   // scan_large's file, else empty
  const std::string& scratch_dir;  // where replays may write index files
  double untraced_headline = 0.0;
  double host_read_gb_per_s = 0.0;
  double bytes_in = 0.0;   // tdam_net_bytes_*_total over the traced traffic
  double bytes_out = 0.0;
};

// Per-layer metrics of the traced run: program instruments read over the
// wire, and the benchmark's replays of each layer's public entry point.
std::vector<Metric> measure_layers(const LayerInputs& in, SpanLog& spans,
                                   Tally& tally);

// Headline metric of a workload, the one obs.trace_overhead_frac compares.
double headline(const Spec& spec, const Traffic& traffic);

// The unlabelled counter `name` in `registry`; throws when absent.
double counter_value(const tdam::obs::MetricsRegistry& registry,
                     const std::string& name);

double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

}  // namespace perfbench
