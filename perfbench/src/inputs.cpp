// Workload definitions and their seeded inputs.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

Spec make_spec(const std::string& name, double seconds) {
  Spec s;
  s.name = name;
  s.seconds = seconds;
  if (name == "serve_mixed") {
    // Latency at moderate load: 16,384 uniform rows of the paper's 64-stage
    // chain at 2 bits (256 KiB, cache resident) on the calibrated TD-AM
    // model, Poisson arrivals at about a fifth of capacity, 5 % k=1000.
    s.id = Workload::kServeMixed;
    s.backend = "behavioral";
    s.stages = 64;
    s.build_rows = 16384;
    s.rate_qps = 4000.0;
    s.connections = 2;
    s.k_large = 1000;
    s.check_every = 32;
  } else if (name == "scan_large") {
    // Capacity beyond the cache: 262,144 clustered rows of 1,024 digits
    // (64 MiB packed, twice the L3) loaded from an mmap index file, then a
    // 1,024-row catch-up over the wire after the restart; closed loop with
    // max_batch queries in flight per connection so batches flush on size,
    // not on the timer.
    s.id = Workload::kScanLarge;
    s.backend = "digital";
    s.stages = 1024;
    s.file_rows = 262144;
    s.catchup_rows = 1024;
    s.open_loop = false;
    s.connections = 2;
    s.in_flight = 32;
    s.closed_queries = static_cast<int>(std::lround(1536.0 * seconds));
    s.check_every = 512;
  } else if (name == "ingest_live") {
    // Writes beside reads: a fixed row count stored as STORE_BATCH frames
    // into an empty cosine index while one connection reads open loop.
    s.id = Workload::kIngestLive;
    s.backend = "cosine";
    s.metric = tdam::core::DigitMetric::kCosine;
    s.stages = 256;
    s.live_rows =
        static_cast<int>(std::lround(64.0 * seconds)) * kStoreBatchRows;
    s.rate_qps = 500.0;
    s.connections = 1;
    s.check_every = 16;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (serve_mixed|scan_large|ingest_live)");
  }
  if (s.stages % 32 != 0 || s.rows_total() <= 0 || seconds <= 0.0)
    throw std::invalid_argument("bad workload geometry");
  return s;
}

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Independent streams: draw(key(seed, tag), i) is the i-th splitmix64
// output from a state derived from the seed and the stream's tag.
enum Tag : std::uint64_t {
  kRows = 1,
  kCentres,
  kCentreOf,
  kRowMask,
  kRowValue,
  kQueryDigits,
  kQueryMask,
  kQueryValue,
  kQueryK,
  kSchedule,
};

std::uint64_t key(std::uint64_t seed, std::uint64_t tag) {
  return mix(mix(seed + kGolden) ^ (tag * 0xD1B54A32D192ED03ull));
}

std::uint64_t draw(std::uint64_t k, std::uint64_t i) {
  return mix(k + (i + 1) * kGolden);
}

constexpr int kCentreCount = 1024;
constexpr unsigned kRowResample = 51;    // of 256: 20 % of digits
constexpr unsigned kQueryResample = 26;  // of 256: 10 % of digits
// Odd multiplier: i -> (i * kBaseMul + kBaseAdd) mod 2^n is a bijection,
// so scan_large queries within a run never share a base row.
constexpr std::uint64_t kBaseMul = 0x2545F4914F6CDD1Dull;
constexpr std::uint64_t kBaseAdd = 0x1234567ull;

}  // namespace

Inputs::Inputs(const Spec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  if (spec_.id == Workload::kScanLarge) {
    if ((spec_.file_rows & (spec_.file_rows - 1)) != 0)
      throw std::invalid_argument("scan_large needs a power-of-two row count");
    centres_.resize(static_cast<std::size_t>(kCentreCount) *
                    static_cast<std::size_t>(spec_.stages));
    for (int c = 0; c < kCentreCount; ++c)
      uniform(key(seed_, kCentres), c,
              centres_.data() + static_cast<std::size_t>(c) *
                                    static_cast<std::size_t>(spec_.stages));
  }
}

void Inputs::uniform(std::uint64_t k, std::int64_t index,
                     std::uint8_t* out) const {
  const int words = spec_.stages / 32;
  for (int w = 0; w < words; ++w) {
    const std::uint64_t h =
        draw(k, static_cast<std::uint64_t>(index) * static_cast<std::uint64_t>(words) +
                    static_cast<std::uint64_t>(w));
    for (int d = 0; d < 32; ++d) out[w * 32 + d] = (h >> (2 * d)) & 3u;
  }
}

// Redraws each digit with probability threshold / 256.
void Inputs::resample(std::uint64_t mask_key, std::uint64_t value_key,
                      std::int64_t index, unsigned threshold,
                      std::uint8_t* out) const {
  const auto base = static_cast<std::uint64_t>(index) *
                    static_cast<std::uint64_t>(spec_.stages / 8);
  std::uint64_t value = 0;
  std::uint64_t mask = 0;
  for (int j = 0; j < spec_.stages; ++j) {
    if (j % 32 == 0)
      value = draw(value_key, static_cast<std::uint64_t>(index) *
                                      static_cast<std::uint64_t>(spec_.stages / 32) +
                                  static_cast<std::uint64_t>(j / 32));
    if (j % 8 == 0)
      mask = draw(mask_key, base + static_cast<std::uint64_t>(j / 8));
    if (((mask >> (8 * (j % 8))) & 0xffu) < threshold)
      out[j] = (value >> (2 * (j % 32))) & 3u;
  }
}

void Inputs::row(std::int64_t r, std::uint8_t* out) const {
  if (spec_.id != Workload::kScanLarge) {
    uniform(key(seed_, kRows), r, out);
    return;
  }
  const auto c = draw(key(seed_, kCentreOf), static_cast<std::uint64_t>(r)) %
                 kCentreCount;
  const auto n = static_cast<std::size_t>(spec_.stages);
  std::copy_n(centres_.data() + c * n, n, out);
  resample(key(seed_, kRowMask), key(seed_, kRowValue), r, kRowResample, out);
}

void Inputs::query(std::int64_t i, std::uint8_t* out) const {
  if (spec_.id != Workload::kScanLarge) {
    uniform(key(seed_, kQueryDigits), i, out);
    return;
  }
  // A stored row with 10 % of its digits redrawn.
  const auto mask = static_cast<std::uint64_t>(spec_.file_rows - 1);
  row(static_cast<std::int64_t>((static_cast<std::uint64_t>(i) * kBaseMul + kBaseAdd) & mask),
      out);
  resample(key(seed_, kQueryMask), key(seed_, kQueryValue), i, kQueryResample,
           out);
}

int Inputs::k(std::int64_t i) const {
  if (spec_.k_large > 0 &&
      draw(key(seed_, kQueryK), static_cast<std::uint64_t>(i)) % 100 < 5)
    return spec_.k_large;
  return spec_.k_small;
}

std::vector<double> Inputs::schedule(int phase) const {
  std::vector<double> at;
  const std::uint64_t k = key(seed_, kSchedule);
  const auto first = static_cast<std::uint64_t>(phase) << 40;
  double t = 0.0;
  for (std::uint64_t n = first;; ++n) {
    const double u = static_cast<double>(draw(k, n) >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / spec_.rate_qps;
    if (t >= spec_.seconds) break;
    at.push_back(t);
  }
  return at;
}

}  // namespace perfbench
