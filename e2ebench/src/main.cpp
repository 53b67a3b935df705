// End-to-end benchmark of the H-ORAM library on both clocks.
//
//   horam_e2e --workload NAME --seed N --seconds S --trace 0|1
//   horam_e2e --selftest
//   horam_e2e --workload NAME --setup-only   (one cold set-up, see below)
//
// Workloads (README.md has the recipes):
//   path-nvme-uniform    one synchronous caller, sealed Path ORAM, NVMe
//   paper-hotspot-hdd    the paper's hotspot stream, sealed H-ORAM, HDD
//   tenants-zipf-remote  8 tenants on a 4-shard, coalescing ring service
//
// The benchmark generates its own request stream from --seed, drives the
// library only through the public facade (horam.h), and checks every read
// against its own shadow model. The timed stream runs whole units of 64
// requests until --seconds have passed *and* the workload's fixed virtual
// window (its first `window` requests) is complete. Host metrics cover the whole timed
// stream; virtual latency samples and every program counter are taken
// over the window, so they are bit-identical for a fixed seed.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// set; with --trace 1 they are the per-layer set, measured by timing the
// benchmark's own calls into each layer and by reading the counters the
// program exposes, and the call spans are written as Chrome trace-event
// JSON under .bench_out/. The line before it is a {"detail": ...} object with the sample
// count, the virtual latency quantiles, the bus-shape constant and the
// run's host throughput (traced runs too, for the tracing overhead).
//
// Virtual latency below the shuffle cliff is fixed by the bus shape, so
// p50/p99/p99.9 repeat exactly across seeds on the synchronous Path ORAM
// caller; they go to the detail line, and the end-to-end tail metric is
// the mean of the slowest 0.1% of the window's samples.
//
// setup_s is the mean of several cold set-ups: this process's own, then
// fresh processes of this binary run with --setup-only, one at a time
// before the stream. Each times its set-up from its own start and exits.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "horam.h"
#include "oram/common/block_codec.h"

namespace {

using namespace horam;
using host_clock = std::chrono::steady_clock;

// Set-up time is measured from here: the first dynamic initialisation of
// the process, before main() runs.
const host_clock::time_point g_process_start = host_clock::now();

/// Requests per unit of the timed stream: every run issues whole units.
constexpr std::uint64_t kUnit = 64;
/// Smallest virtual window (a multiple of kUnit): >= 10 000 samples, so
/// p99.9 has ten samples beyond it.
constexpr std::uint64_t kMinWindow = 10240;
/// The program's own randomness (keys, leaves, PRF routing) is part of
/// the machine, not of the input: --seed varies only the request stream.
constexpr std::uint64_t kMachineSeed = 2019;

double seconds_between(host_clock::time_point a, host_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_between(host_clock::time_point a, host_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ------------------------------------------------------- inputs

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** seeded through splitmix64: the benchmark's only source of
/// request randomness, independent of the library's generators.
class stream_rng {
 public:
  explicit stream_rng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (std::uint64_t& word : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      word = mix64(x);
    }
  }
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  bool chance(double p) { return unit() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4] = {};
};

/// Payload of `id` at `version`: version 0 is the initial contents the
/// filler installs, version k >= 1 the block's k-th write.
void payload_bytes_of(std::uint64_t id, std::uint64_t version,
                      std::span<std::uint8_t> out) {
  std::uint64_t x = mix64(id * 0x100000001b3ULL ^ mix64(version + 0x51ed));
  for (std::size_t i = 0; i < out.size(); i += 8) {
    x = mix64(x);
    const std::size_t n = std::min<std::size_t>(8, out.size() - i);
    std::memcpy(out.data() + i, &x, n);
  }
}

std::vector<std::uint8_t> payload_of(std::uint64_t id, std::uint64_t version,
                                     std::size_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  payload_bytes_of(id, version, out);
  return out;
}

void filler(oram::block_id id, std::span<std::uint8_t> out) {
  payload_bytes_of(id, 0, out);
}

// ------------------------------------------------------- tracing

/// The calls the benchmark makes into the program (plus its own phases).
enum class call : std::uint8_t {
  build,
  stream,
  readback,
  read,
  write,
  submit,
  drain,
  async_read,
  async_write,
  step,
  result,
  count_
};

constexpr const char* kCallNames[] = {
    "build",      "stream",      "readback", "read",  "write", "submit",
    "drain",      "async_read",  "async_write", "step", "result"};
static_assert(std::size(kCallNames) == static_cast<std::size_t>(call::count_));

/// Calls into the program (the others are benchmark phases).
bool is_program_call(call kind) {
  return kind != call::build && kind != call::stream &&
         kind != call::readback;
}

/// In-memory span recorder. Disabled, a scope costs one branch; enabled,
/// each span records (name, start, end, parent, request id) until
/// kMaxSpans are kept, and per-call host totals keep accumulating.
class tracer {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  struct totals {
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };

  class scope {
   public:
    scope(tracer* owner, call kind, std::int64_t request)
        : owner_(owner != nullptr && owner->on_ ? owner : nullptr),
          kind_(kind) {
      if (owner_ != nullptr) {
        index_ = owner_->open(kind, request);
        start_ = host_clock::now();
      }
    }
    ~scope() {
      if (owner_ != nullptr) {
        owner_->close(kind_, index_, start_, host_clock::now());
      }
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer* owner_;
    call kind_;
    std::int64_t index_ = -1;
    host_clock::time_point start_{};
  };

  explicit tracer(bool on) : on_(on) {}

  [[nodiscard]] scope span(call kind, std::int64_t request = -1) {
    return scope(this, kind, request);
  }
  [[nodiscard]] const totals& total(call kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  /// Host nanoseconds spent inside program calls so far.
  [[nodiscard]] std::int64_t program_ns() const {
    std::int64_t ns = 0;
    for (std::size_t k = 0; k < totals_.size(); ++k) {
      if (is_program_call(static_cast<call>(k))) {
        ns += totals_[k].ns;
      }
    }
    return ns;
  }
  [[nodiscard]] std::size_t kept() const noexcept { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome(const std::string& path) const {
    const std::filesystem::path out(path);
    if (out.has_parent_path()) {
      std::filesystem::create_directories(out.parent_path());
    }
    std::ofstream file(out);
    file << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    char buffer[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const record& r = spans_[i];
      std::snprintf(
          buffer, sizeof buffer,
          "%s\n{\"name\":\"%s\",\"cat\":\"horam\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
          "\"parent\":%lld,\"request\":%lld}}",
          i == 0 ? "" : ",", kCallNames[static_cast<std::size_t>(r.kind)],
          static_cast<double>(r.start) / 1e3,
          static_cast<double>(r.end - r.start) / 1e3, i,
          static_cast<long long>(r.parent),
          static_cast<long long>(r.request));
      file << buffer;
    }
    file << "\n]}\n";
    if (!file) {
      throw std::runtime_error("cannot write trace file " + path);
    }
  }

 private:
  struct record {
    call kind = call::build;
    std::int64_t start = 0;  // ns since process start
    std::int64_t end = 0;
    std::int64_t parent = -1;
    std::int64_t request = -1;
  };

  std::int64_t open(call kind, std::int64_t request) {
    std::int64_t index = -1;
    if (spans_.size() < kMaxSpans) {
      index = static_cast<std::int64_t>(spans_.size());
      spans_.push_back(record{kind, 0, 0,
                              open_.empty() ? -1 : open_.back(), request});
    } else {
      ++dropped_;
    }
    open_.push_back(index);
    return index;
  }
  void close(call kind, std::int64_t index, host_clock::time_point start,
             host_clock::time_point end) {
    totals& t = totals_[static_cast<std::size_t>(kind)];
    t.ns += ns_between(start, end);
    ++t.calls;
    if (index >= 0) {
      record& r = spans_[static_cast<std::size_t>(index)];
      r.start = ns_between(g_process_start, start);
      r.end = ns_between(g_process_start, end);
    }
    open_.pop_back();
  }

  bool on_;
  std::vector<record> spans_;
  std::vector<std::int64_t> open_;
  std::uint64_t dropped_ = 0;
  std::array<totals, static_cast<std::size_t>(call::count_)> totals_{};
};

// ------------------------------------------------------- counters

/// Every program counter the per-layer metrics read, summed over shards.
struct counters {
  sim::sim_time now = 0;
  std::uint64_t trusted_bytes = 0;
  controller_stats ctrl;
  engine_stats router;
  backend_stats backend;
  sim::io_stats storage;
  sim::io_stats memory;
};

counters read_counters(const client& oram) {
  counters c;
  const engine& eng = oram.eng();
  c.now = oram.now();
  c.trusted_bytes = oram.control_memory_bytes();
  c.ctrl = oram.stats();
  c.router = eng.router_stats();
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    const backend_stats& b = eng.shard(s).backend().stats();
    c.backend.real_loads += b.real_loads;
    c.backend.prefetched_blocks += b.prefetched_blocks;
    c.backend.partitions_shuffled += b.partitions_shuffled;
    c.backend.overflow_blocks += b.overflow_blocks;
    const sim::io_stats& st = eng.shard_storage(s).stats();
    const sim::io_stats& mem = eng.shard_memory(s).stats();
    c.storage.read_ops += st.read_ops;
    c.storage.write_ops += st.write_ops;
    c.storage.bytes_read += st.bytes_read;
    c.storage.bytes_written += st.bytes_written;
    c.storage.round_trips += st.round_trips;
    c.storage.busy_time += st.busy_time;
    c.memory.read_ops += mem.read_ops;
    c.memory.write_ops += mem.write_ops;
    c.memory.bytes_read += mem.bytes_read;
    c.memory.bytes_written += mem.bytes_written;
    c.memory.busy_time += mem.busy_time;
  }
  return c;
}

/// Busy <= elapsed on every device of every shard lane.
void check_lanes_busy(const client& oram, sim::sim_time elapsed,
                      std::vector<std::string>& errors) {
  const engine& eng = oram.eng();
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    for (const bool storage : {true, false}) {
      const sim::block_device& dev =
          storage ? eng.shard_storage(s) : eng.shard_memory(s);
      const std::string lane = "shard " + std::to_string(s) +
                               (storage ? " storage" : " memory");
      std::string v = e2e::check_busy(dev.stats().busy_time, elapsed, lane);
      if (!v.empty()) {
        errors.push_back(std::move(v));
      }
    }
  }
}

// ------------------------------------------------------- one run

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // traced runs: .bench_out/<workload>-seed<N>...
  bool selftest = false;
  /// Build the workload, print the cold set-up time and exit.
  bool setup_only = false;
};

/// What a workload hands back to the reporting code.
struct run_outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Check violations among the requests that completed.
  std::vector<std::string> errors;
  /// Why a unit failed (its requests count in `failed`).
  std::vector<std::string> failures;

  double setup_s = 0.0;
  double setup_cpu_s = 0.0;  // process user+system at the end of set-up
  /// Cold set-ups setup_s averages: this process's and fresh ones'.
  std::uint32_t setup_processes = 1;
  double wall_s = 0.0;  // timed stream
  double cpu_s = 0.0;   // process user+system over the timed stream
  std::int64_t program_ns = 0;  // traced: host time inside program calls

  /// Requests in the virtual window: a multiple of kUnit, >= kMinWindow.
  std::uint64_t window = kMinWindow;
  /// Virtual latency of the first `window` requests, in ns.
  std::vector<sim::sim_time> samples;
  /// The same samples split by tenant (service workload only).
  std::vector<std::vector<sim::sim_time>> tenant_samples;
  counters at_reset;
  counters at_window;
  bool window_closed = false;
  std::uint64_t steps_in_window = 0;

  std::uint32_t shards = 1;
  std::uint64_t user_bytes = 0;
  std::uint64_t storage_bytes = 0;
  std::uint64_t record_unit = 0;  // bytes per record on the device lanes
  std::size_t payload = 0;
  std::uint64_t bus_ops_per_cycle = 0;
  /// Per-tenant completions earlier than a predecessor's on another lane.
  std::uint64_t cross_shard_inversions = 0;
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// Cold set-up seconds of a fresh process of this binary, or a negative
/// value when it fails.
double fresh_setup_seconds(const options& opt) {
  std::array<char, 4096> exe{};
  const ssize_t n = readlink("/proc/self/exe", exe.data(), exe.size() - 1);
  if (n <= 0) {
    return -1.0;
  }
  std::string cmd = "'";
  cmd.append(exe.data(), static_cast<std::size_t>(n));
  cmd += "' --workload " + opt.workload + " --setup-only";
  FILE* child = popen(cmd.c_str(), "r");
  if (child == nullptr) {
    return -1.0;
  }
  std::array<char, 128> line{};
  double seconds = -1.0;
  while (std::fgets(line.data(), line.size(), child) != nullptr) {
    seconds = std::strtod(line.data(), nullptr);
  }
  return pclose(child) == 0 ? seconds : -1.0;
}

/// Ends the set-up phase. A --setup-only process prints its set-up time
/// and exits at once, without tearing the client down. An untraced run
/// replaces its own set-up time with the mean over itself and
/// `out.setup_processes - 1` fresh processes: one cold set-up of a few
/// tens of ms on a shared host is mostly the neighbours' noise.
void finish_setup(const options& opt, run_outcome& out) {
  if (opt.setup_only) {
    std::printf("%.9f\n", out.setup_s);
    std::fflush(stdout);
    std::_Exit(0);
  }
  if (opt.trace) {
    out.setup_processes = 1;
    return;
  }
  double sum = out.setup_s;
  for (std::uint32_t k = 1; k < out.setup_processes; ++k) {
    const double seconds = fresh_setup_seconds(opt);
    if (seconds <= 0.0) {
      throw std::runtime_error("a --setup-only process failed");
    }
    sum += seconds;
  }
  out.setup_s = sum / out.setup_processes;
}

/// Runs the timed stream: whole units until the window is complete and
/// the host time is up. `unit` issues kUnit requests; `at_window`
/// snapshots the counters when the window closes.
template <class Unit, class AtWindow>
void timed_stream(const options& opt, run_outcome& out, tracer& tr,
                  Unit&& unit, AtWindow&& at_window) {
  finish_setup(opt, out);
  const double cpu0 = cpu_seconds();
  const host_clock::time_point wall0 = host_clock::now();
  {
    auto s = tr.span(call::stream);
    for (;;) {
      out.attempted += kUnit;
      try {
        unit();
      } catch (const std::exception& e) {
        out.failed += kUnit;
        out.failures.push_back(e.what());
        break;
      }
      if (!out.window_closed && out.attempted >= out.window) {
        at_window();
        out.window_closed = true;
      }
      if (out.window_closed &&
          seconds_between(wall0, host_clock::now()) >= opt.seconds) {
        break;
      }
    }
  }
  out.wall_s = seconds_between(wall0, host_clock::now());
  out.cpu_s = cpu_seconds() - cpu0;
  out.program_ns = tr.program_ns();
}

void note(std::vector<std::string>& errors, std::string verdict) {
  if (!verdict.empty() && errors.size() < 20) {
    errors.push_back(std::move(verdict));
  }
}

/// Footprint figures. A user byte is a byte of the logical block the
/// devices are timed for: the payload, or the logical block size where a
/// workload carries a smaller payload than it models (the paper's 1 KiB
/// blocks with 32-B payloads).
void describe_storage(const client& oram, std::uint64_t blocks,
                      std::size_t payload, run_outcome& out) {
  const engine& eng = oram.eng();
  const oram::block_codec codec(payload, oram.config().seal, 1);
  const std::uint64_t logical = oram.config().logical_block_bytes;
  out.shards = eng.shard_count();
  out.payload = payload;
  out.user_bytes = blocks * (logical != 0 ? logical : payload);
  for (std::uint32_t s = 0; s < eng.shard_count(); ++s) {
    out.storage_bytes += eng.shard(s).backend().physical_bytes();
  }
  out.record_unit = logical != 0 ? logical : codec.record_bytes();
}

/// Reads `ids` back through the synchronous API and compares each with
/// the shadow model.
void read_back(client& oram, tracer& tr,
               const std::vector<std::uint32_t>& versions,
               const std::vector<oram::block_id>& ids, std::size_t payload,
               std::vector<std::string>& errors) {
  auto s = tr.span(call::readback);
  for (const oram::block_id id : ids) {
    std::vector<std::uint8_t> got;
    {
      auto r = tr.span(call::read, static_cast<std::int64_t>(id));
      got = oram.read(id);
    }
    note(errors, e2e::check_payload(got, payload_of(id, versions[id], payload),
                                    "read-back of block " +
                                        std::to_string(id)));
  }
}

/// 256 evenly spread blocks plus the blocks of the last unit.
std::vector<oram::block_id> readback_ids(std::uint64_t blocks,
                                         const std::vector<oram::block_id>&
                                             last_unit) {
  std::vector<oram::block_id> ids;
  for (std::uint64_t i = 0; i < 256; ++i) {
    ids.push_back(i * (blocks / 256) + (i % 7));
  }
  ids.insert(ids.end(), last_unit.begin(), last_unit.end());
  return ids;
}

// --- workload 1: path-nvme-uniform ------------------------------------

run_outcome run_path_uniform(const options& opt, tracer& tr) {
  constexpr std::uint64_t kBlocks = 1 << 16;
  constexpr std::size_t kPayload = 256;
  constexpr double kWrites = 0.3;

  run_outcome out;
  std::optional<client> built;
  {
    auto s = tr.span(call::build);
    built.emplace(client_builder()
                      .blocks(kBlocks)
                      .payload_bytes(kPayload)
                      .cache_ratio(0.125)
                      .backend(backend_kind::path)
                      .storage_profile("nvme")
                      .seal(true)
                      .seed(kMachineSeed)
                      .filler(filler)
                      .build());
  }
  client& oram = *built;
  out.setup_s = seconds_between(g_process_start, host_clock::now());
  out.setup_cpu_s = cpu_seconds();
  out.setup_processes = 4;  // cold set-ups of about 0.5 s: ~2 s in all
  describe_storage(oram, kBlocks, kPayload, out);

  oram.reset_stats();
  out.at_reset = read_counters(oram);
  stream_rng rng(mix64(opt.seed ^ 0x9a7e));
  std::vector<std::uint32_t> versions(kBlocks, 0);
  std::vector<std::uint8_t> buffer(kPayload);
  std::vector<std::uint8_t> expected(kPayload);
  std::vector<oram::block_id> last_unit(kUnit);
  e2e::bus_shape_check shape;
  std::uint64_t ordinal = 0;

  const auto unit = [&] {
    for (std::uint64_t k = 0; k < kUnit; ++k, ++ordinal) {
      const oram::block_id id = rng.below(kBlocks);
      const bool is_write = rng.chance(kWrites);
      last_unit[k] = id;
      const std::uint64_t ops0 = oram.storage_device().stats().total_ops();
      const controller_stats& before = oram.stats();
      const std::uint64_t cycles0 = before.cycles;
      const std::uint64_t periods0 = before.periods;
      const sim::sim_time t0 = oram.now();
      if (is_write) {
        payload_bytes_of(id, ++versions[id], buffer);
        auto s = tr.span(call::write, static_cast<std::int64_t>(ordinal));
        oram.write(id, buffer);
      } else {
        std::vector<std::uint8_t> got;
        {
          auto s = tr.span(call::read, static_cast<std::int64_t>(ordinal));
          got = oram.read(id);
        }
        payload_bytes_of(id, versions[id], expected);
        note(out.errors,
             e2e::check_payload(got, expected,
                                "read " + std::to_string(ordinal)));
      }
      const sim::sim_time t1 = oram.now();
      if (out.samples.size() < out.window) {
        out.samples.push_back(t1 - t0);
      }
      const controller_stats& after = oram.stats();
      shape.observe(oram.storage_device().stats().total_ops() - ops0,
                    after.cycles - cycles0, after.periods != periods0);
    }
  };
  timed_stream(opt, out, tr, unit,
               [&] { out.at_window = read_counters(oram); });

  note(out.errors, e2e::check_conservation(out.attempted - out.failed,
                                           oram.stats().requests, {}));
  note(out.errors, shape.verdict());
  out.bus_ops_per_cycle = shape.ops_per_cycle();
  check_lanes_busy(oram, oram.now() - out.at_reset.now, out.errors);
  read_back(oram, tr, versions, readback_ids(kBlocks, last_unit), kPayload,
            out.errors);
  return out;
}

// --- workload 2: paper-hotspot-hdd ------------------------------------

run_outcome run_paper_hotspot(const options& opt, tracer& tr) {
  // Table 5-3 geometry: 64 MiB of 1 KiB logical blocks, 8 MiB cache.
  constexpr std::uint64_t kBlockBytes = 1024;
  constexpr std::uint64_t kBlocks = (64ULL << 20) / kBlockBytes;
  constexpr std::uint64_t kMemoryBlocks = (8ULL << 20) / kBlockBytes;
  constexpr std::size_t kPayload = 32;
  constexpr double kHot = 0.8;
  constexpr double kHotFraction = 0.017;
  constexpr double kWrites = 0.2;

  run_outcome out;
  // About ten shuffle periods (one per ~12k requests at ~0.34 cycles per
  // request), so the stop-the-world tail is sampled every run.
  out.window = 131072;
  std::optional<client> built;
  {
    auto s = tr.span(call::build);
    built.emplace(client_builder()
                      .blocks(kBlocks)
                      .memory_blocks(kMemoryBlocks)
                      .payload_bytes(kPayload)
                      .logical_block_bytes(kBlockBytes)
                      .backend(backend_kind::partitioned)
                      .storage_profile("hdd")
                      .shuffle(shuffle_policy::foreground)
                      .seal(true)
                      .seed(kMachineSeed)
                      .filler(filler)
                      .build());
  }
  client& oram = *built;
  out.setup_s = seconds_between(g_process_start, host_clock::now());
  out.setup_cpu_s = cpu_seconds();
  out.setup_processes = 48;  // cold set-ups of about 30 ms: ~2 s in all
  describe_storage(oram, kBlocks, kPayload, out);

  oram.reset_stats();
  out.at_reset = read_counters(oram);
  stream_rng rng(mix64(opt.seed ^ 0x407a));
  const auto hot_blocks = static_cast<std::uint64_t>(
      kHotFraction * static_cast<double>(kBlocks));
  const std::uint64_t hot_base = rng.below(kBlocks - hot_blocks + 1);
  std::vector<std::uint32_t> versions(kBlocks, 0);
  std::vector<request> batch(kUnit);
  std::vector<std::uint32_t> expect_version(kUnit);
  std::vector<oram::block_id> last_unit(kUnit);
  std::vector<request_result> results;
  std::vector<std::uint8_t> expected(kPayload);
  std::uint64_t ordinal = 0;

  const auto unit = [&] {
    for (std::uint64_t k = 0; k < kUnit; ++k) {
      request& req = batch[k];
      req.id = rng.chance(kHot) ? hot_base + rng.below(hot_blocks)
                                : rng.below(kBlocks);
      req.op = rng.chance(kWrites) ? oram::op_kind::write
                                   : oram::op_kind::read;
      req.write_data.clear();
      if (req.op == oram::op_kind::write) {
        req.write_data = payload_of(req.id, ++versions[req.id], kPayload);
      }
      expect_version[k] = versions[req.id];
      last_unit[k] = req.id;
    }
    const sim::sim_time submitted = oram.now();
    {
      auto s = tr.span(call::submit, static_cast<std::int64_t>(ordinal));
      oram.submit(batch);
    }
    {
      auto s = tr.span(call::drain, static_cast<std::int64_t>(ordinal));
      oram.drain(&results);
    }
    if (results.size() != kUnit) {
      throw std::runtime_error("drain returned " +
                               std::to_string(results.size()) + " results");
    }
    for (std::uint64_t k = 0; k < kUnit; ++k, ++ordinal) {
      if (out.samples.size() < out.window) {
        out.samples.push_back(results[k].completion_time - submitted);
      }
      if (batch[k].op == oram::op_kind::read) {
        payload_bytes_of(batch[k].id, expect_version[k], expected);
        note(out.errors,
             e2e::check_payload(results[k].read_data, expected,
                                "read " + std::to_string(ordinal)));
      }
    }
  };
  timed_stream(opt, out, tr, unit,
               [&] { out.at_window = read_counters(oram); });

  note(out.errors, e2e::check_conservation(out.attempted - out.failed,
                                           oram.stats().requests, {}));
  check_lanes_busy(oram, oram.now() - out.at_reset.now, out.errors);
  read_back(oram, tr, versions, readback_ids(kBlocks, last_unit), kPayload,
            out.errors);
  return out;
}

// --- workload 3: tenants-zipf-remote ----------------------------------

constexpr std::uint32_t kTenants = 8;

/// The one tenant allowed to write `id`.
std::uint32_t writer_of(oram::block_id id, std::uint64_t salt) {
  return static_cast<std::uint32_t>(mix64(id ^ salt) % kTenants);
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class zipf_sampler {
 public:
  zipf_sampler(std::uint64_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  std::uint64_t operator()(stream_rng& rng) const {
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::uint64_t>(
        static_cast<std::uint64_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

run_outcome run_tenants_zipf(const options& opt, tracer& tr) {
  constexpr std::uint64_t kBlocks = 1 << 16;
  constexpr std::size_t kPayload = 64;
  constexpr double kWrites = 0.3;
  constexpr double kZipf = 1.1;
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint32_t kThreads = 2;
  constexpr sim::sim_time kSliceBudget = 2'000'000;  // 2 ms device time

  run_outcome out;
  out.window = 3 * kMinWindow;
  std::optional<service> built;
  std::vector<session> sessions;
  {
    auto s = tr.span(call::build);
    built.emplace(client_builder()
                      .blocks(kBlocks)
                      .payload_bytes(kPayload)
                      // A small trusted cache: many short shuffle periods
                      // per run keep virtual throughput steady per seed.
                      .cache_ratio(1.0 / 32)
                      .backend(backend_kind::ring)
                      .storage_profile("net-remote")
                      .shards(kShards)
                      .threads(kThreads)
                      .coalescing(true)
                      .shuffle(shuffle_policy::incremental)
                      .shuffle_slice_budget(kSliceBudget)
                      .fairness(fairness_kind::weighted_share)
                      .seal(true)
                      .seed(kMachineSeed)
                      .filler(filler)
                      .build_service());
    for (std::uint32_t t = 0; t < kTenants; ++t) {
      sessions.push_back(built->open_session(t % 2 == 0 ? 1.0 : 2.0));
    }
  }
  service& svc = *built;
  client& oram = svc.underlying();
  out.setup_s = seconds_between(g_process_start, host_clock::now());
  out.setup_cpu_s = cpu_seconds();
  out.setup_processes = 12;  // cold set-ups of about 0.17 s: ~2 s in all
  describe_storage(oram, kBlocks, kPayload, out);

  svc.reset_stats();
  out.at_reset = read_counters(oram);
  out.tenant_samples.resize(kTenants);
  stream_rng rng(mix64(opt.seed ^ 0x5e11));
  const zipf_sampler zipf(kBlocks, kZipf);
  // Scatter ranks over the id space: an odd multiplier is a bijection
  // modulo the power-of-two block count.
  const std::uint64_t scatter_mul = rng.next() | 1;
  const std::uint64_t scatter_add = rng.next();
  const std::uint64_t writer_salt = rng.next();
  std::vector<std::uint32_t> versions(kBlocks, 0);
  std::vector<std::uint32_t> settled(kBlocks, 0);

  struct pending {
    ticket handle;
    std::uint32_t tenant = 0;
    oram::block_id id = 0;
    bool is_write = false;
    std::uint32_t version = 0;  // written, or expected by the writer
  };
  std::vector<pending> window(kUnit);
  std::vector<oram::block_id> last_unit(kUnit);
  std::vector<std::uint8_t> buffer(kPayload);
  std::vector<std::uint8_t> expected(kPayload);
  std::vector<std::vector<std::uint8_t>> candidates;
  const engine& eng = oram.eng();
  // The library keeps completions monotone per shard lane
  // (coalesce/coalescer.h, member::order_hint); lanes run concurrently on
  // the virtual clock and promise no order between them. So FIFO is
  // checked per (tenant, lane), and cross-lane inversions are counted.
  e2e::fifo_check fifo(kTenants * eng.shard_count());
  e2e::fifo_check cross_shard(kTenants);
  std::uint64_t ordinal = 0;

  const auto pump = [&] {
    for (std::size_t k = 0; k < window.size();) {
      if (window[k].handle.ready()) {
        ++k;
        continue;
      }
      bool progressed = false;
      {
        auto s = tr.span(call::step);
        progressed = svc.step();
      }
      if (!progressed) {
        throw std::runtime_error("service idle with tickets outstanding");
      }
      if (!out.window_closed) {
        ++out.steps_in_window;
      }
    }
  };

  const auto unit = [&] {
    for (std::uint64_t k = 0; k < kUnit; ++k) {
      pending& p = window[k];
      p.id = (zipf(rng) * scatter_mul + scatter_add) % kBlocks;
      p.is_write = rng.chance(kWrites);
      const std::uint32_t writer = writer_of(p.id, writer_salt);
      p.tenant = p.is_write ? writer
                            : static_cast<std::uint32_t>(rng.below(kTenants));
      last_unit[k] = p.id;
      if (p.is_write) {
        p.version = ++versions[p.id];
        payload_bytes_of(p.id, p.version, buffer);
        auto s = tr.span(call::async_write,
                         static_cast<std::int64_t>(ordinal + k));
        p.handle = sessions[p.tenant].async_write(p.id, buffer);
      } else {
        p.version = versions[p.id];
        auto s = tr.span(call::async_read,
                         static_cast<std::int64_t>(ordinal + k));
        p.handle = sessions[p.tenant].async_read(p.id);
      }
    }
    pump();
    for (std::uint64_t k = 0; k < kUnit; ++k, ++ordinal) {
      pending& p = window[k];
      const ticket_result* r = nullptr;
      {
        auto s = tr.span(call::result, static_cast<std::int64_t>(ordinal));
        r = &p.handle.result();
      }
      fifo.observe(p.tenant * eng.shard_count() + eng.shard_of(p.id),
                   r->sim_time);
      cross_shard.observe(p.tenant, r->sim_time);
      if (out.samples.size() < out.window) {
        out.samples.push_back(r->latency);
        out.tenant_samples[p.tenant].push_back(r->latency);
      }
      if (p.is_write) {
        continue;
      }
      const std::string what = "read " + std::to_string(ordinal) +
                               " (tenant " + std::to_string(p.tenant) + ")";
      if (p.tenant == writer_of(p.id, writer_salt)) {
        // The writer reads its own latest write: exact.
        payload_bytes_of(p.id, p.version, expected);
        note(out.errors, e2e::check_payload(r->payload, expected, what));
      } else {
        // Another tenant: the value settled before the window, or any
        // value written to the block within it.
        candidates.clear();
        for (std::uint32_t v = settled[p.id]; v <= versions[p.id]; ++v) {
          candidates.push_back(payload_of(p.id, v, kPayload));
        }
        note(out.errors, e2e::check_one_of(r->payload, candidates, what));
      }
    }
    for (const pending& p : window) {
      settled[p.id] = versions[p.id];
    }
  };
  timed_stream(opt, out, tr, unit,
               [&] { out.at_window = read_counters(oram); });

  std::uint64_t completed = 0;
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    completed += svc.tenant_stats(t).completed;
  }
  note(out.errors, e2e::check_conservation(out.attempted - out.failed,
                                           svc.stats().requests, completed));
  note(out.errors, fifo.verdict());
  out.cross_shard_inversions = cross_shard.inversions();
  const engine_stats& router = eng.router_stats();
  note(out.errors,
       e2e::check_padded_rounds(router.rounds, eng.round_cap(),
                                eng.shard_count(), router.physical_accesses,
                                router.pad_requests));
  check_lanes_busy(oram, oram.now() - out.at_reset.now, out.errors);

  // Read-back through one session: every window has settled.
  {
    auto s = tr.span(call::readback);
    const std::vector<oram::block_id> ids = readback_ids(kBlocks, last_unit);
    std::vector<ticket> tickets;
    for (const oram::block_id id : ids) {
      tickets.push_back(sessions[0].async_read(id));
    }
    svc.run_until_idle();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      note(out.errors,
           e2e::check_payload(tickets[i].result().payload,
                              payload_of(ids[i], versions[ids[i]], kPayload),
                              "read-back of block " + std::to_string(ids[i])));
    }
  }
  return out;
}

// ------------------------------------------------------- reporting

/// Nearest-rank quantile of sorted samples.
double quantile_of(const std::vector<sim::sim_time>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double mean_of(const std::vector<sim::sim_time>& samples) {
  double sum = 0.0;
  for (const sim::sim_time v : samples) {
    sum += static_cast<double>(v);
  }
  return ratio(sum, static_cast<double>(samples.size()));
}

/// Mean of the slowest `share` of sorted samples (at least one).
double tail_mean_of(const std::vector<sim::sim_time>& sorted, double share) {
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(share * static_cast<double>(sorted.size()))));
  return mean_of(std::vector<sim::sim_time>(
      sorted.end() - static_cast<std::ptrdiff_t>(std::min(n, sorted.size())),
      sorted.end()));
}

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<metric> end_to_end_metrics(const run_outcome& out) {
  std::vector<sim::sim_time> sorted = out.samples;
  std::sort(sorted.begin(), sorted.end());
  const double window_virtual_s =
      static_cast<double>(out.at_window.now - out.at_reset.now) / 1e9;
  const auto completed = static_cast<double>(out.attempted - out.failed);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"host_rps", ratio(completed, out.wall_s), "req/s"},
      {"host_cpu_us_per_request", ratio(out.cpu_s * 1e6, completed), "us"},
      {"virtual_rps",
       ratio(static_cast<double>(out.samples.size()), window_virtual_s),
       "req/s"},
      {"virtual_tail_us", tail_mean_of(sorted, 0.001) / 1e3, "us"},
      {"setup_s", out.setup_s, "s"},
      {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
      {"storage_bytes_per_user_byte",
       ratio(static_cast<double>(out.storage_bytes),
             static_cast<double>(out.user_bytes)),
       "ratio"},
      {"trusted_bytes", static_cast<double>(out.at_window.trusted_bytes),
       "bytes"},
  };
}

/// Median host ns per sealed record encode and decode, timed by calling
/// the codec directly at the workload's payload size.
std::pair<double, double> time_codec(std::size_t payload) {
  oram::block_codec codec(payload, true, 0xc0de);
  std::vector<std::uint8_t> data(payload, 0x5a);
  std::vector<std::uint8_t> record(codec.record_bytes());
  std::vector<std::uint8_t> back(payload);
  constexpr int kBatches = 7;
  constexpr int kPerBatch = 2000;
  std::vector<double> enc;
  std::vector<double> dec;
  for (int b = 0; b < kBatches; ++b) {
    const host_clock::time_point t0 = host_clock::now();
    for (int i = 0; i < kPerBatch; ++i) {
      data[0] = static_cast<std::uint8_t>(i);
      codec.encode(static_cast<oram::block_id>(i), data, record);
    }
    const host_clock::time_point t1 = host_clock::now();
    for (int i = 0; i < kPerBatch; ++i) {
      if (codec.decode(record, back) == oram::dummy_block_id) {
        throw std::runtime_error("codec decoded a dummy");
      }
    }
    const host_clock::time_point t2 = host_clock::now();
    enc.push_back(static_cast<double>(ns_between(t0, t1)) / kPerBatch);
    dec.push_back(static_cast<double>(ns_between(t1, t2)) / kPerBatch);
  }
  std::sort(enc.begin(), enc.end());
  std::sort(dec.begin(), dec.end());
  return {enc[kBatches / 2], dec[kBatches / 2]};
}

std::vector<metric> per_layer_metrics(const run_outcome& out,
                                      const tracer& tr) {
  const counters& a = out.at_reset;
  const counters& w = out.at_window;
  const auto requests = static_cast<double>(out.samples.size());
  const auto per_request = [&](double v) { return ratio(v, requests); };
  const double elapsed = static_cast<double>(w.now - a.now);
  const double lane_time = elapsed * out.shards;
  const controller_stats& c = w.ctrl;  // reset_stats zeroed it at `a`
  const engine_stats& r = w.router;
  const auto d = [](std::uint64_t later, std::uint64_t earlier) {
    return static_cast<double>(later - earlier);
  };

  const double shuffle_ops =
      static_cast<double>(c.shuffle_device_read_ops + c.shuffle_device_write_ops);
  const double shuffle_bytes = static_cast<double>(
      c.shuffle_device_read_bytes + c.shuffle_device_write_bytes);
  const double storage_ops =
      d(w.storage.read_ops, a.storage.read_ops) +
      d(w.storage.write_ops, a.storage.write_ops);
  const double storage_bytes =
      d(w.storage.bytes_read, a.storage.bytes_read) +
      d(w.storage.bytes_written, a.storage.bytes_written);
  const double storage_trips = d(w.storage.round_trips, a.storage.round_trips);
  const double read_bytes = d(w.storage.bytes_read, a.storage.bytes_read) +
                            d(w.memory.bytes_read, a.memory.bytes_read);
  const double written_bytes =
      d(w.storage.bytes_written, a.storage.bytes_written) +
      d(w.memory.bytes_written, a.memory.bytes_written);

  // Host side (whole timed stream).
  const double stream_requests =
      static_cast<double>(out.attempted - out.failed);
  const double program_us = static_cast<double>(out.program_ns) / 1e3;
  const tracer::totals& admit_r = tr.total(call::async_read);
  const tracer::totals& admit_w = tr.total(call::async_write);
  const tracer::totals& steps = tr.total(call::step);
  const auto [encode_ns, decode_ns] = time_codec(out.payload);
  const double unit = static_cast<double>(out.record_unit);
  const double codec_ns_per_request =
      per_request(read_bytes / unit * decode_ns +
                  written_bytes / unit * encode_ns);

  double worst_tenant_p99 = 0.0;
  for (std::vector<sim::sim_time> t : out.tenant_samples) {
    std::sort(t.begin(), t.end());
    worst_tenant_p99 = std::max(worst_tenant_p99, quantile_of(t, 0.99) / 1e3);
  }

  return {
      // service / scheduler
      {"service.admit_host_ns",
       ratio(static_cast<double>(admit_r.ns + admit_w.ns),
             static_cast<double>(admit_r.calls + admit_w.calls)),
       "ns"},
      {"service.step_host_us",
       ratio(static_cast<double>(steps.ns) / 1e3,
             static_cast<double>(steps.calls)),
       "us"},
      {"service.steps_per_request",
       per_request(static_cast<double>(out.steps_in_window)), "count"},
      {"scheduler.worst_tenant_virtual_p99_us", worst_tenant_p99, "us"},
      // engine / coalescer
      {"engine.rounds_per_request",
       per_request(static_cast<double>(r.rounds)), "count"},
      {"engine.pad_requests_per_request",
       per_request(static_cast<double>(r.pad_requests)), "count"},
      {"coalesce.physical_accesses_per_request",
       r.real_requests == 0 ? 1.0 : r.ios_per_logical_request(), "count"},
      // controller
      {"controller.hit_rate",
       ratio(static_cast<double>(c.hits), static_cast<double>(c.requests)),
       "ratio"},
      {"controller.cycles_per_request",
       per_request(static_cast<double>(c.cycles)), "count"},
      {"controller.dummy_loads_per_request",
       per_request(static_cast<double>(c.dummy_loads)), "count"},
      {"controller.dummy_path_accesses_per_request",
       per_request(static_cast<double>(c.dummy_path_accesses)), "count"},
      {"controller.periods", static_cast<double>(c.periods), "count"},
      {"controller.access_virtual_s",
       static_cast<double>(c.access_time) / 1e9, "s"},
      {"controller.shuffle_virtual_s",
       static_cast<double>(c.shuffle_time) / 1e9, "s"},
      {"controller.shuffle_stall_virtual_s",
       static_cast<double>(c.shuffle_stall_time) / 1e9, "s"},
      {"controller.io_busy_share",
       ratio(static_cast<double>(c.io_busy), lane_time), "ratio"},
      {"controller.memory_busy_share",
       ratio(static_cast<double>(c.memory_busy), lane_time), "ratio"},
      {"controller.cpu_busy_share",
       ratio(static_cast<double>(c.cpu_busy), lane_time), "ratio"},
      // backend
      {"backend.real_loads_per_request",
       per_request(d(w.backend.real_loads, a.backend.real_loads)), "count"},
      {"backend.prefetched_blocks",
       d(w.backend.prefetched_blocks, a.backend.prefetched_blocks), "count"},
      {"backend.overflow_blocks",
       d(w.backend.overflow_blocks, a.backend.overflow_blocks), "count"},
      {"backend.partitions_shuffled",
       d(w.backend.partitions_shuffled, a.backend.partitions_shuffled),
       "count"},
      // shuffle
      {"shuffle.device_bytes_per_period",
       ratio(shuffle_bytes, static_cast<double>(c.periods)), "bytes"},
      {"shuffle.round_trips_per_period",
       ratio(static_cast<double>(c.shuffle_device_round_trips),
             static_cast<double>(c.periods)),
       "count"},
      {"shuffle.slices", static_cast<double>(c.shuffle_slices), "count"},
      // device
      {"device.online_ops_per_request", per_request(storage_ops - shuffle_ops),
       "count"},
      {"device.online_bytes_per_request",
       per_request(storage_bytes - shuffle_bytes), "bytes"},
      {"device.online_round_trips_per_request",
       per_request(storage_trips -
                   static_cast<double>(c.shuffle_device_round_trips)),
       "count"},
      {"device.shuffle_ops_per_request", per_request(shuffle_ops), "count"},
      {"device.shuffle_bytes_per_request", per_request(shuffle_bytes),
       "bytes"},
      {"device.memory_ops_per_request",
       per_request(d(w.memory.read_ops, a.memory.read_ops) +
                   d(w.memory.write_ops, a.memory.write_ops)),
       "count"},
      {"device.memory_bytes_per_request",
       per_request(d(w.memory.bytes_read, a.memory.bytes_read) +
                   d(w.memory.bytes_written, a.memory.bytes_written)),
       "bytes"},
      {"device.storage_busy_share",
       ratio(d(w.storage.busy_time, a.storage.busy_time), lane_time),
       "ratio"},
      // codec / crypto
      {"codec.encode_host_ns", encode_ns, "ns"},
      {"codec.decode_host_ns", decode_ns, "ns"},
      {"codec.records_per_request",
       per_request((read_bytes + written_bytes) / unit), "count"},
      {"codec.est_host_share",
       ratio(codec_ns_per_request, ratio(out.cpu_s * 1e9, stream_requests)),
       "ratio"},
      // runtime
      {"runtime.cpu_over_wall", ratio(out.cpu_s, out.wall_s), "ratio"},
      // harness
      {"host.program_us_per_request", ratio(program_us, stream_requests),
       "us"},
      {"host.harness_us_per_request",
       ratio(out.wall_s * 1e6 - program_us, stream_requests), "us"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

// ------------------------------------------------------- self-test

/// Runs every check on real data (it must hold) and on a deliberately
/// wrong expectation (it must fail). Returns the number of checks that
/// did not behave.
int selftest() {
  int bad = 0;
  const auto expect = [&bad](std::string_view name, const std::string& real,
                             const std::string& corrupted) {
    const bool ok = real.empty() && !corrupted.empty();
    std::cout << (ok ? "ok   " : "FAIL ") << name << ": real data "
              << (real.empty() ? "holds" : "VIOLATES (" + real + ")")
              << "; corrupted input "
              << (corrupted.empty() ? "PASSES" : "fails (" + corrupted + ")")
              << "\n";
    bad += ok ? 0 : 1;
  };

  constexpr std::uint64_t kBlocks = 1 << 10;
  constexpr std::size_t kPayload = 64;

  // Synchronous client: payload, conservation, bus shape, busy.
  client oram = client_builder()
                    .blocks(kBlocks)
                    .payload_bytes(kPayload)
                    .cache_ratio(0.125)
                    .backend(backend_kind::path)
                    .storage_profile("nvme")
                    .seed(7)
                    .filler(filler)
                    .build();
  oram.reset_stats();
  const sim::sim_time t0 = oram.now();
  stream_rng rng(11);
  std::vector<std::uint32_t> versions(kBlocks, 0);
  e2e::bus_shape_check shape;
  e2e::bus_shape_check shape_corrupted;
  std::string payload_real;
  std::string payload_corrupted;
  constexpr std::uint64_t kRequests = 512;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const oram::block_id id = rng.below(kBlocks);
    const std::uint64_t ops0 = oram.storage_device().stats().total_ops();
    const std::uint64_t cycles0 = oram.stats().cycles;
    const std::uint64_t periods0 = oram.stats().periods;
    if (i % 3 == 0) {
      oram.write(id, payload_of(id, ++versions[id], kPayload));
    } else {
      const std::vector<std::uint8_t> got = oram.read(id);
      std::vector<std::uint8_t> want = payload_of(id, versions[id], kPayload);
      if (payload_real.empty()) {
        payload_real = e2e::check_payload(got, want, "read");
      }
      want[i % kPayload] ^= 0x01;  // flipped payload byte
      if (payload_corrupted.empty()) {
        payload_corrupted = e2e::check_payload(got, want, "read");
      }
    }
    const std::uint64_t ops = oram.storage_device().stats().total_ops() - ops0;
    const std::uint64_t cycles = oram.stats().cycles - cycles0;
    const bool shuffled = oram.stats().periods != periods0;
    shape.observe(ops, cycles, shuffled);
    // One request moves one extra device op.
    shape_corrupted.observe(i == kRequests / 2 ? ops + cycles : ops, cycles,
                            shuffled && i != kRequests / 2);
  }
  expect("payload", payload_real, payload_corrupted);
  expect("conservation",
         e2e::check_conservation(kRequests, oram.stats().requests, {}),
         e2e::check_conservation(kRequests + 1, oram.stats().requests, {}));
  expect("bus-shape", shape.verdict(), shape_corrupted.verdict());
  const sim::sim_time elapsed = oram.now() - t0;
  const sim::sim_time busy = oram.storage_device().stats().busy_time;
  expect("busy<=elapsed", e2e::check_busy(busy, elapsed, "storage"),
         e2e::check_busy(busy, busy - 1, "storage"));

  // Sharded coalescing service: FIFO, tenant conservation, padded
  // rounds, admissible values.
  service svc = client_builder()
                    .blocks(kBlocks)
                    .payload_bytes(kPayload)
                    .cache_ratio(0.125)
                    .backend(backend_kind::ring)
                    .storage_profile("net-remote")
                    .shards(2)
                    .coalescing(true)
                    .fairness(fairness_kind::weighted_share)
                    .seed(13)
                    .filler(filler)
                    .build_service();
  std::vector<session> tenants;
  for (std::uint32_t t = 0; t < 4; ++t) {
    tenants.push_back(svc.open_session(t % 2 == 0 ? 1.0 : 2.0));
  }
  svc.reset_stats();
  std::vector<ticket> tickets;
  std::vector<oram::block_id> ids;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const oram::block_id id = rng.below(16);  // hot: forces coalescing
    ids.push_back(id);
    tickets.push_back(tenants[i % 4].async_read(id));
  }
  svc.run_until_idle();
  const engine& eng = svc.underlying().eng();
  // (tenant-and-lane stream, completion time) in submission order.
  std::vector<std::pair<std::uint32_t, std::int64_t>> order;
  std::string one_of_real;
  std::string one_of_corrupted;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const ticket_result& r = tickets[i].result();
    order.emplace_back(
        tickets[i].tenant() * eng.shard_count() + eng.shard_of(ids[i]),
        r.sim_time);
    const std::vector<std::vector<std::uint8_t>> admissible = {
        payload_of(ids[i], 0, kPayload)};
    if (one_of_real.empty()) {
      one_of_real = e2e::check_one_of(r.payload, admissible, "read");
    }
    std::vector<std::uint8_t> flipped = r.payload;
    flipped[i % kPayload] ^= 0x80;
    if (one_of_corrupted.empty()) {
      one_of_corrupted = e2e::check_one_of(flipped, admissible, "read");
    }
  }
  expect("admissible-value", one_of_real, one_of_corrupted);

  const std::size_t streams = 4 * eng.shard_count();
  e2e::fifo_check fifo(streams);
  for (const auto& [stream, when] : order) {
    fifo.observe(stream, when);
  }
  // Swap two consecutive completions of one stream that differ in time.
  std::vector<std::pair<std::uint32_t, std::int64_t>> swapped = order;
  for (std::size_t i = 0, prev = order.size(); i < order.size(); ++i) {
    if (order[i].first != order[0].first) {
      continue;
    }
    if (prev != order.size() && order[prev].second != order[i].second) {
      std::swap(swapped[prev], swapped[i]);
      break;
    }
    prev = i;
  }
  e2e::fifo_check fifo_corrupted(streams);
  for (const auto& [stream, when] : swapped) {
    fifo_corrupted.observe(stream, when);
  }
  expect("per-tenant-fifo", fifo.verdict(), fifo_corrupted.verdict());

  std::uint64_t completed = 0;
  for (std::uint32_t t = 0; t < 4; ++t) {
    completed += svc.tenant_stats(t).completed;
  }
  expect("tenant-conservation",
         e2e::check_conservation(tickets.size(), svc.stats().requests,
                                 completed),
         e2e::check_conservation(tickets.size(), svc.stats().requests,
                                 completed - 1));
  const engine_stats& router = eng.router_stats();
  expect("padded-rounds",
         e2e::check_padded_rounds(router.rounds, eng.round_cap(),
                                  eng.shard_count(), router.physical_accesses,
                                  router.pad_requests),
         e2e::check_padded_rounds(router.rounds, eng.round_cap(),
                                  eng.shard_count(),
                                  router.physical_accesses + 1,
                                  router.pad_requests));
  std::cout << (bad == 0 ? "selftest: every check holds on real data and "
                           "fails on its corrupted input\n"
                         : "selftest: some checks are vacuous or wrong\n");
  return bad;
}

// ------------------------------------------------------- main

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "horam_e2e: " << problem
            << "\nusage: horam_e2e --workload path-nvme-uniform|"
               "paper-hotspot-hdd|tenants-zipf-remote --seed N --seconds S "
               "--trace 0|1\n       horam_e2e --selftest\n";
  std::exit(2);
}

options parse(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (arg == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(arg + " needs a value");
    }
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        opt.trace = value == "1";
      } else {
        usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + arg);
    }
  }
  if (!opt.selftest && opt.workload.empty()) {
    usage("--workload is required");
  }
  if (opt.trace) {
    opt.trace_out = ".bench_out/" + opt.workload + "-seed" +
                    std::to_string(opt.seed) + ".trace.json";
  }
  return opt;
}

int run_benchmark(const options& opt) {
  tracer tr(opt.trace);
  run_outcome out;
  if (opt.workload == "path-nvme-uniform") {
    out = run_path_uniform(opt, tr);
  } else if (opt.workload == "paper-hotspot-hdd") {
    out = run_paper_hotspot(opt, tr);
  } else if (opt.workload == "tenants-zipf-remote") {
    out = run_tenants_zipf(opt, tr);
  } else {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!out.window_closed) {
    out.errors.push_back("the virtual window never completed");
  }

  const std::vector<metric> metrics =
      opt.trace ? per_layer_metrics(out, tr) : end_to_end_metrics(out);
  if (opt.trace) {
    tr.write_chrome(opt.trace_out);
  }
  const double completed = static_cast<double>(out.attempted - out.failed);
  std::vector<sim::sim_time> sorted = out.samples;
  std::sort(sorted.begin(), sorted.end());

  std::string detail = "{\"detail\": {\"workload\": " +
                       json_string(opt.workload) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") +
                       ", \"window_samples\": " +
                       std::to_string(out.samples.size()) +
                       ", \"stream_requests\": " +
                       std::to_string(out.attempted) +
                       ", \"setup_processes\": " +
                       std::to_string(out.setup_processes) +
                       ", \"setup_cpu_s\": " + json_number(out.setup_cpu_s) +
                       ", \"stream_wall_s\": " + json_number(out.wall_s) +
                       ", \"virtual_mean_us\": " +
                       json_number(mean_of(out.samples) / 1e3) +
                       ", \"virtual_p50_us\": " +
                       json_number(quantile_of(sorted, 0.5) / 1e3) +
                       ", \"virtual_p99_us\": " +
                       json_number(quantile_of(sorted, 0.99) / 1e3) +
                       ", \"virtual_p999_us\": " +
                       json_number(quantile_of(sorted, 0.999) / 1e3) +
                       ", \"virtual_max_us\": " +
                       json_number(quantile_of(sorted, 1.0) / 1e3) +
                       ", \"host_rps\": " +
                       json_number(ratio(completed, out.wall_s)) +
                       ", \"bus_ops_per_cycle\": " +
                       std::to_string(out.bus_ops_per_cycle) +
                       ", \"fifo_cross_shard_inversions\": " +
                       std::to_string(out.cross_shard_inversions);
  if (opt.trace) {
    detail += ", \"trace_file\": " + json_string(opt.trace_out) +
              ", \"spans\": " + std::to_string(tr.kept()) +
              ", \"spans_dropped\": " + std::to_string(tr.dropped());
  }
  for (const auto& [key, list] :
       {std::pair{"errors", &out.errors}, {"failures", &out.failures}}) {
    detail += std::string(", \"") + key + "\": [";
    for (std::size_t i = 0; i < list->size(); ++i) {
      detail += (i == 0 ? "" : ", ") + json_string((*list)[i]);
    }
    detail += "]";
  }
  detail += "}}";
  std::cout << detail << "\n";

  std::string line = "{\"correct\": ";
  line += out.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  try {
    return opt.selftest ? (selftest() == 0 ? 0 : 1) : run_benchmark(opt);
  } catch (const std::exception& e) {
    // Set-up or read-back failures: no result line, non-zero exit.
    std::cerr << "horam_e2e: " << e.what() << "\n";
    return 1;
  }
}
