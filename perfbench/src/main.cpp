// tdam_perfbench: the serving benchmark's binary.
//
//   tdam_perfbench --workload serve_mixed|scan_large|ingest_live --seed N
//                  --seconds S --trace 0|1 --scratch DIR [--trace-out FILE]
//
// One process hosts the whole stack (ShardedIndex -> AmServer ->
// AmTcpServer on a loopback port) and drives it through AmClient
// connections.  --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer ones (see perfbench/README.md).  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  Any failed
// operation or wrong answer makes the run exit 1.
#include <malloc.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/kernels/kernels.h"

#include "bench.h"

using namespace perfbench;

namespace {

constexpr int kSetups = 3;      // set-ups per untraced run; setup_s is the median
constexpr int kKeepReplies = 256;  // wire replies the traced replay re-derives
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") { a.seed = std::stoull(value); have_seed = true; }
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value) != 0;
    else if (flag == "--scratch") a.scratch = value;
    else if (flag == "--trace-out") a.trace_out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty() || !have_seed || a.scratch.empty())
    throw std::invalid_argument("--workload, --seed and --scratch are required");
  return a;
}

// Streaming read over four times the L3, best of five passes.
double host_read_gb_per_s() {
  long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 <= 0) l3 = 32L << 20;
  const std::size_t words = 4 * static_cast<std::size_t>(l3) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> buf(words, 1);
  double best = 0.0;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const std::int64_t t0 = now_ns();
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    for (std::size_t i = 0; i + 4 <= words; i += 4) {
      a += buf[i];
      b += buf[i + 1];
      c += buf[i + 2];
      d += buf[i + 3];
    }
    const std::int64_t t1 = now_ns();
    sink = a + b + c + d;
    best = std::max(best, static_cast<double>(words * sizeof(std::uint64_t)) /
                              static_cast<double>(t1 - t0));
  }
  if (sink != words) throw std::runtime_error("bandwidth probe misread");
  return best;  // bytes per ns == GB/s
}

// Peak RSS covers the serving stack: the high-water mark is reset after
// input generation.
void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string number(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted.load()) +
                     ", \"failed\": " + std::to_string(tally.failed.load()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::vector<Metric> untraced_run(const Spec& spec, const Inputs& inputs,
                                 const std::string& index_file, Tally& tally,
                                 std::vector<Check>& checks) {
  std::vector<double> setups, ingest;
  std::unique_ptr<Stack> stack;
  for (int s = 0; s < kSetups; ++s) {
    stack.reset();  // the previous set-up is torn down before the next
    stack = std::make_unique<Stack>(spec, inputs, index_file,
                                    tdam::obs::TraceConfig{}, s, tally);
    setups.push_back(stack->setup_s);
    ingest.push_back(stack->writes.rows_per_s());
    checks.push_back(stack->probe);
  }
  Traffic traffic = run_traffic(*stack, spec, inputs, 0, 0, tally);
  const double peak_mb = peak_rss_mb();
  const double resident_mb =
      static_cast<double>(stack->index().resident_bytes()) / kMiB;
  stack.reset();
  checks.insert(checks.end(), traffic.checks.begin(), traffic.checks.end());
  const double rows_per_s =
      spec.live_rows > 0 ? traffic.writes.rows_per_s() : median(ingest);
  std::printf("perfbench: client.send_lag_us_p99 %.1f | index.resident_mb %.3f\n",
              traffic.send_lag_us_p99(), resident_mb);
  return {
      {"setup_s", median(setups), "s"},
      {"query_p50_ms", traffic.p50_ms(), "ms"},
      {"query_p99_ms", traffic.p99_ms(), "ms"},
      {"throughput_qps", traffic.qps(), "1/s"},
      {"ingest_rows_per_s", rows_per_s, "1/s"},
      {"peak_rss_mb", peak_mb, "MiB"},
  };
}

std::vector<Metric> traced_run(const Spec& spec, const Inputs& inputs,
                               const std::string& index_file,
                               const std::string& scratch, double host_gbps,
                               const std::string& trace_out, Tally& tally,
                               std::vector<Check>& checks) {
  // Untraced baseline for obs.trace_overhead_frac (shipped trace default).
  double untraced = 0.0;
  {
    Stack stack(spec, inputs, index_file, tdam::obs::TraceConfig{}, 0, tally);
    checks.push_back(stack.probe);
    const Traffic traffic = run_traffic(stack, spec, inputs, 0, 0, tally);
    untraced = headline(spec, traffic);
    checks.insert(checks.end(), traffic.checks.begin(), traffic.checks.end());
  }
  const std::size_t queries =
      spec.open_loop ? inputs.schedule(1).size()
                     : static_cast<std::size_t>(spec.closed_queries);
  tdam::obs::TraceConfig full;
  full.mode = tdam::obs::TraceMode::kFull;
  full.capacity = queries + 64;  // every measured span stays in the ring
  Stack stack(spec, inputs, index_file, full, 1, tally);
  checks.push_back(stack.probe);
  const auto& registry = stack.server().metrics().registry();
  const double in_before = counter_value(registry, "tdam_net_bytes_in_total");
  const double out_before = counter_value(registry, "tdam_net_bytes_out_total");
  const Traffic traffic = run_traffic(stack, spec, inputs, 1, kKeepReplies, tally);
  // The server counts reply bytes and records a wire span just after each
  // write; let the last ones land before reading them.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  checks.insert(checks.end(), traffic.checks.begin(), traffic.checks.end());
  LayerInputs in{spec, inputs, stack, traffic, index_file, scratch};
  in.untraced_headline = untraced;
  in.host_read_gb_per_s = host_gbps;
  in.bytes_in = counter_value(registry, "tdam_net_bytes_in_total") - in_before;
  in.bytes_out = counter_value(registry, "tdam_net_bytes_out_total") - out_before;
  SpanLog spans;
  auto metrics = measure_layers(in, spans, tally);
  if (!trace_out.empty()) spans.write(trace_out);
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  std::string index_file;
  try {
    const Args args = parse(argc, argv);
    if (std::getenv("TDAM_KERNEL") != nullptr)
      throw std::invalid_argument(
          "TDAM_KERNEL is set; the benchmark measures the auto-selected "
          "kernel path only");
    const Spec spec = make_spec(args.workload, args.seconds);
    const double host_gbps = host_read_gb_per_s();
    const Inputs inputs(spec, args.seed);
    if (spec.file_rows > 0) {
      index_file = args.scratch + "/" + spec.name + ".tdam";
      write_index_file(spec, inputs, index_file);
    }
    ::malloc_trim(0);
    reset_peak_rss();

    const auto& isa = tdam::core::kernels::active();
    std::printf("perfbench: workload %s seed %llu seconds %g trace %d | isa %s"
                " vpopcntdq %d | nproc %ld | loadgen threads %d | "
                "host.read_gb_per_s %.2f\n",
                spec.name.c_str(), static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, isa.name,
                tdam::core::kernels::avx512_uses_vpopcntdq() ? 1 : 0,
                ::sysconf(_SC_NPROCESSORS_ONLN), spec.loadgen_threads(),
                host_gbps);

    Tally tally;
    std::vector<Check> checks;
    std::vector<Metric> metrics;
    if (args.trace) {
      metrics = traced_run(spec, inputs, index_file, args.scratch, host_gbps,
                           args.trace_out, tally, checks);
    } else {
      metrics = untraced_run(spec, inputs, index_file, tally, checks);
    }
    const long wrong = verify(spec, inputs, checks);
    tally.failed += wrong;
    std::printf("perfbench: %zu replies checked against the reference, %ld wrong\n",
                checks.size(), wrong);
    if (!index_file.empty()) std::remove(index_file.c_str());
    const bool correct = tally.failed.load() == 0;
    print_result(correct, tally, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    if (!index_file.empty()) std::remove(index_file.c_str());
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
