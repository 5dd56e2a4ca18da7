// The self-hosted serving stack and the client traffic that drives it.
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/digit_matrix.h"
#include "core/index_io.h"
#include "runtime/backends.h"
#include "util/rng.h"

#include "bench.h"

namespace perfbench {

using tdam::net::AmClient;
using tdam::net::MsgType;
using tdam::net::WireCode;

namespace {

// A reply that never comes must not hang the run: recv() then fails and
// the query counts as missing.
constexpr int kReplyTimeoutS = 30;

void set_reply_timeout(int fd) {
  timeval tv{};
  tv.tv_sec = kReplyTimeoutS;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

std::size_t expected_entries(const Spec& spec, int k, std::uint64_t generation) {
  const auto visible = static_cast<std::uint64_t>(spec.file_rows) + generation;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(k), visible));
}

bool reply_ok(const Spec& spec, int k, const AmClient::Reply& reply) {
  return reply.type == MsgType::kQueryReply &&
         reply.query.code == WireCode::kOk &&
         reply.query.metric == spec.metric &&
         reply.query.generation <= static_cast<std::uint64_t>(spec.wire_rows()) &&
         reply.query.entries.size() ==
             expected_entries(spec, k, reply.query.generation);
}

void report_bad_reply(const AmClient::Reply& reply, std::int64_t query) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) >= 3) return;
  std::fprintf(stderr,
               "perfbench: query %lld failed: reply type %d code %s%s%s\n",
               static_cast<long long>(query), static_cast<int>(reply.type),
               tdam::net::wire_code_name(reply.type == MsgType::kError
                                             ? reply.error.code
                                             : reply.query.code),
               reply.type == MsgType::kError ? ": " : "",
               reply.error.message.c_str());
}

std::vector<std::uint16_t> wire_digits(const std::vector<std::uint8_t>& d) {
  return {d.begin(), d.end()};
}

}  // namespace

double WriteLog::rows_per_s() const {
  if (rows == 0 || last_ack_ns <= first_send_ns) return 0.0;
  return static_cast<double>(rows) * 1e9 /
         static_cast<double>(last_ack_ns - first_send_ns);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

tdam::am::CalibrationResult calibrate() {
  tdam::am::ChainConfig config;
  config.encoding = tdam::am::Encoding(2);
  tdam::Rng rng(8);
  return tdam::am::calibrate_chain(config, rng);
}

void store_rows(AmClient& client, const Spec& spec, const Inputs& inputs,
                std::int64_t first, std::int64_t count, WriteLog& log) {
  const auto n = static_cast<std::size_t>(spec.stages);
  std::vector<std::uint8_t> row(n);
  std::vector<std::uint16_t> digits;
  for (std::int64_t at = 0; at < count; at += kStoreBatchRows) {
    const std::int64_t rows = std::min<std::int64_t>(kStoreBatchRows, count - at);
    digits.clear();
    for (std::int64_t r = 0; r < rows; ++r) {
      inputs.row(first + at + r, row.data());
      digits.insert(digits.end(), row.begin(), row.end());
    }
    const std::int64_t sent = now_ns();
    if (log.first_send_ns < 0) log.first_send_ns = sent;
    ++log.frames;
    bool ok = false;
    try {
      const auto reply =
          client.store_batch(digits, static_cast<std::uint32_t>(n));
      ok = reply.type == MsgType::kStoreBatchReply &&
           reply.store_batch.rows == static_cast<std::uint32_t>(rows) &&
           reply.store_batch.first_row == first + at;
      if (!ok)
        std::fprintf(stderr, "perfbench: STORE_BATCH at row %lld failed: %s\n",
                     static_cast<long long>(first + at),
                     reply.error.message.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: STORE_BATCH at row %lld: %s\n",
                   static_cast<long long>(first + at), e.what());
    }
    const std::int64_t acked = now_ns();
    log.last_ack_ns = acked;
    log.frame_ms.push_back(static_cast<double>(acked - sent) * 1e-6);
    if (ok)
      log.rows += rows;
    else
      ++log.failed;
  }
}

Stack::Stack(const Spec& spec, const Inputs& inputs,
             const std::string& index_file,
             const tdam::obs::TraceConfig& trace, int probe_number,
             Tally& tally) {
  const std::int64_t start = now_ns();
  registry_ = tdam::runtime::default_registry(calibrate(), {.stages = spec.stages});
  const tdam::runtime::ShardedIndexOptions options{.backend = spec.backend,
                                                   .shards = spec.shards};
  if (index_file.empty())
    index_ = std::make_unique<tdam::runtime::ShardedIndex>(registry_, options);
  else
    index_ = std::make_unique<tdam::runtime::ShardedIndex>(
        tdam::runtime::ShardedIndex::load(registry_, index_file, options));
  server_ = std::make_unique<tdam::runtime::AmServer>(
      *index_, tdam::runtime::ServerOptions{
                   .engine = {.threads = spec.engine_threads},
                   .scheduler = {},
                   .trace = trace});
  tcp_ = std::make_unique<tdam::net::AmTcpServer>(*server_);
  for (int c = 0; c < spec.connections + spec.writers(); ++c)
    clients_.push_back(std::make_unique<AmClient>("127.0.0.1", tcp_->port()));

  store_rows(*clients_[0], spec, inputs, spec.file_rows, spec.build_rows,
             writes);

  std::vector<std::uint8_t> q(static_cast<std::size_t>(spec.stages));
  probe.query = kProbeBase + probe_number;
  probe.k = spec.k_small;
  inputs.query(probe.query, q.data());
  const auto reply = clients_[0]->query(wire_digits(q),
                                        static_cast<std::uint32_t>(probe.k));
  setup_s = static_cast<double>(now_ns() - start) * 1e-9;
  const bool ok = reply_ok(spec, probe.k, reply);
  if (!ok) report_bad_reply(reply, probe.query);
  tally.add(1, ok ? 0 : 1);
  probe.generation = reply.query.generation;
  probe.entries = reply.query.entries;
  store_rows(*clients_[0], spec, inputs, spec.file_rows + spec.build_rows,
             spec.catchup_rows, writes);
  tally.add(writes.frames, writes.failed);
}

Stack::~Stack() = default;

Traffic run_traffic(Stack& stack, const Spec& spec, const Inputs& inputs,
                    int phase, int keep, Tally& tally) {
  Traffic t;
  const int conns = spec.connections;
  const auto n_digits = static_cast<std::size_t>(spec.stages);
  // Each connection's next request id, learned from a HELLO, maps every
  // reply straight to its query slot without sharing state with the sender.
  std::vector<std::uint64_t> base(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    AmClient& client = stack.client(c);
    const std::uint64_t id = client.send_hello();
    AmClient::Reply reply;
    if (!client.recv(reply) || reply.request_id != id ||
        reply.type != MsgType::kHelloReply)
      throw std::runtime_error("HELLO before traffic failed");
    base[static_cast<std::size_t>(c)] = id + 1;
    set_reply_timeout(client.fd());
  }

  std::vector<double> at;
  if (spec.open_loop) at = inputs.schedule(phase);
  const int n = spec.open_loop ? static_cast<int>(at.size()) : spec.closed_queries;
  t.queries.resize(static_cast<std::size_t>(n));
  // Threads are started before the first send is due.
  t.start_ns = now_ns() + 20'000'000;
  for (int j = 0; j < n; ++j) {
    QueryObs& o = t.queries[static_cast<std::size_t>(j)];
    o.query = phase * kPhaseStride + j;
    o.k = inputs.k(o.query);
    if (spec.open_loop)
      o.due_ns = t.start_ns + static_cast<std::int64_t>(std::llround(at[static_cast<std::size_t>(j)] * 1e9));
  }
  const auto final_generation = static_cast<std::uint64_t>(spec.wire_rows());
  const int keep_per_conn = (keep + conns - 1) / conns;

  // Connection c owns slots c, c + conns, c + 2 * conns, ...
  std::vector<std::vector<Check>> checks(static_cast<std::size_t>(conns));
  std::vector<std::vector<Check>> kept(static_cast<std::size_t>(conns));
  const auto record = [&](int c, const AmClient::Reply& reply,
                          std::int64_t received) {
    const auto m = static_cast<std::int64_t>(reply.request_id) -
                   static_cast<std::int64_t>(base[static_cast<std::size_t>(c)]);
    const std::int64_t slot = c + m * conns;
    if (m < 0 || slot >= n) {
      std::fprintf(stderr, "perfbench: reply with unknown request id %llu\n",
                   static_cast<unsigned long long>(reply.request_id));
      return;
    }
    QueryObs& o = t.queries[static_cast<std::size_t>(slot)];
    o.recv_ns = received;
    o.trace_id = reply.trace_id;
    o.generation = reply.query.generation;
    o.ok = reply_ok(spec, o.k, reply);
    if (!o.ok) {
      report_bad_reply(reply, o.query);
      return;
    }
    if (slot % spec.check_every == 0)
      checks[static_cast<std::size_t>(c)].push_back(
          {o.query, o.k, o.generation, reply.query.entries});
    auto& mine = kept[static_cast<std::size_t>(c)];
    if (static_cast<int>(mine.size()) < keep_per_conn &&
        o.generation == final_generation)
      mine.push_back({o.query, o.k, o.generation, reply.query.entries});
  };
  const auto send = [&](AmClient& client, QueryObs& o,
                        std::vector<std::uint8_t>& q) {
    inputs.query(o.query, q.data());
    const auto digits = wire_digits(q);
    if (o.due_ns < 0) o.due_ns = now_ns();
    sleep_until_ns(o.due_ns);
    o.sent_ns = now_ns();
    client.send_query(digits, static_cast<std::uint32_t>(o.k));
  };
  const auto slots_of = [&](int c) { return (n - c + conns - 1) / conns; };

  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    AmClient& client = stack.client(c);
    if (spec.open_loop) {
      threads.emplace_back([&, c] {  // sender
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        std::vector<std::uint8_t> q(n_digits);
        try {
          for (int j = c; j < n; j += conns)
            send(client, t.queries[static_cast<std::size_t>(j)], q);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: send failed: %s\n", e.what());
        }
      });
      threads.emplace_back([&, c] {  // receiver
        AmClient::Reply reply;
        try {
          for (int got = 0; got < slots_of(c); ++got) {
            if (!client.recv(reply)) break;
            record(c, reply, now_ns());
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: receive failed: %s\n", e.what());
        }
      });
    } else {
      threads.emplace_back([&, c] {  // closed loop: refill on every reply
        std::vector<std::uint8_t> q(n_digits);
        const int mine = slots_of(c);
        int next = 0;
        AmClient::Reply reply;
        try {
          sleep_until_ns(t.start_ns);
          for (; next < mine && next < spec.in_flight; ++next)
            send(client, t.queries[static_cast<std::size_t>(c + next * conns)], q);
          for (int got = 0; got < mine; ++got) {
            if (!client.recv(reply)) break;
            const std::int64_t received = now_ns();
            record(c, reply, received);
            if (next < mine) {
              QueryObs& o = t.queries[static_cast<std::size_t>(c + next * conns)];
              o.due_ns = received;
              send(client, o, q);
              ++next;
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: closed loop failed: %s\n", e.what());
        }
      });
    }
  }
  if (spec.live_rows > 0) {
    threads.emplace_back([&] {
      sleep_until_ns(t.start_ns);
      store_rows(stack.client(conns), spec, inputs,
                 spec.rows_total() - spec.live_rows, spec.live_rows, t.writes);
    });
  }
  for (auto& th : threads) th.join();

  long bad = 0;
  t.end_ns = t.start_ns;
  for (const QueryObs& o : t.queries) {
    if (!o.ok) ++bad;
    t.end_ns = std::max(t.end_ns, o.recv_ns);
  }
  for (int c = 0; c < conns; ++c) {
    auto& cs = checks[static_cast<std::size_t>(c)];
    auto& ks = kept[static_cast<std::size_t>(c)];
    std::move(cs.begin(), cs.end(), std::back_inserter(t.checks));
    std::move(ks.begin(), ks.end(), std::back_inserter(t.kept));
  }
  if (static_cast<int>(t.kept.size()) > keep) t.kept.resize(static_cast<std::size_t>(keep));
  tally.add(n + t.writes.frames, bad + t.writes.failed);
  return t;
}

namespace {

std::vector<double> latencies_ms(const Traffic& t) {
  std::vector<double> ms;
  ms.reserve(t.queries.size());
  for (const QueryObs& o : t.queries)
    ms.push_back(o.ok ? static_cast<double>(o.recv_ns - o.due_ns) * 1e-6
                      : std::numeric_limits<double>::infinity());
  return ms;
}

}  // namespace

double Traffic::p50_ms() const { return percentile(latencies_ms(*this), 0.50); }
double Traffic::p99_ms() const { return percentile(latencies_ms(*this), 0.99); }

double Traffic::qps() const {
  long answered = 0;
  std::int64_t first = end_ns;
  for (const QueryObs& o : queries) {
    if (o.ok) ++answered;
    if (o.due_ns >= 0) first = std::min(first, o.due_ns);
  }
  if (end_ns <= first) return 0.0;
  return static_cast<double>(answered) * 1e9 / static_cast<double>(end_ns - first);
}

double Traffic::send_lag_us_p99() const {
  std::vector<double> us;
  for (const QueryObs& o : queries)
    if (o.sent_ns >= 0) us.push_back(static_cast<double>(o.sent_ns - o.due_ns) * 1e-3);
  return percentile(std::move(us), 0.99);
}

void write_index_file(const Spec& spec, const Inputs& inputs,
                      const std::string& path) {
  constexpr int kLevels = 4;
  std::vector<tdam::core::DigitMatrix> parts;
  std::vector<std::vector<int>> ids(static_cast<std::size_t>(spec.shards));
  for (int s = 0; s < spec.shards; ++s) parts.emplace_back(spec.stages, kLevels);
  std::vector<std::uint8_t> row(static_cast<std::size_t>(spec.stages));
  std::vector<int> digits(row.size());
  for (int r = 0; r < spec.file_rows; ++r) {
    inputs.row(r, row.data());
    std::copy(row.begin(), row.end(), digits.begin());
    const auto s = static_cast<std::size_t>(r % spec.shards);
    parts[s].append(digits);
    ids[s].push_back(r);
  }
  std::vector<tdam::core::SavedSegment> segments;
  for (int s = 0; s < spec.shards; ++s) {
    const auto& m = parts[static_cast<std::size_t>(s)];
    segments.push_back(
        {s, ids[static_cast<std::size_t>(s)],
         {m.words_data(), static_cast<std::size_t>(m.rows()) *
                              static_cast<std::size_t>(m.words_per_row())}});
  }
  tdam::core::save_index_file(
      path,
      {.backend = spec.backend,
       .stages = spec.stages,
       .levels = kLevels,
       .shards = spec.shards,
       .rows = static_cast<std::uint64_t>(spec.file_rows)},
      segments);
}

}  // namespace perfbench
