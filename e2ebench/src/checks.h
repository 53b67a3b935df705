// Result and property checks of the end-to-end benchmark.
//
// Every check is a plain function or a small accumulator over values the
// benchmark gathered itself, so the same code judges a real run and the
// deliberately corrupted inputs of the self-test (main.cpp --selftest).
// A check returns an empty string when it holds and a one-line
// description of the first violation otherwise.
#ifndef HORAM_E2EBENCH_CHECKS_H
#define HORAM_E2EBENCH_CHECKS_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Exact payload equality (reads in program order, read-back).
[[nodiscard]] std::string check_payload(std::span<const std::uint8_t> got,
                                        std::span<const std::uint8_t> expected,
                                        std::string_view what);

/// A read whose value may be any of `candidates` (a tenant reading a
/// block another tenant writes within the same window).
[[nodiscard]] std::string check_one_of(
    std::span<const std::uint8_t> got,
    std::span<const std::vector<std::uint8_t>> candidates,
    std::string_view what);

/// Request conservation: the benchmark's own count of issued requests
/// equals the program's aggregate request counter and, for the service,
/// the sum of the per-tenant completed counters.
[[nodiscard]] std::string check_conservation(
    std::uint64_t issued, std::uint64_t stats_requests,
    std::optional<std::uint64_t> tenant_completed);

/// Padded-round identity of the sharded engine: every round runs
/// round_cap() slots on every shard, real or pad.
[[nodiscard]] std::string check_padded_rounds(std::uint64_t rounds,
                                              std::uint64_t round_cap,
                                              std::uint64_t shards,
                                              std::uint64_t physical_accesses,
                                              std::uint64_t pad_requests);

/// A device lane cannot be busy for longer than the virtual time that
/// elapsed since its counters were reset.
[[nodiscard]] std::string check_busy(std::int64_t busy, std::int64_t elapsed,
                                     std::string_view lane);

/// Bus-shape invariant: every request served without a shuffle period
/// moves the same number of storage-device operations per cycle.
class bus_shape_check {
 public:
  void observe(std::uint64_t device_ops, std::uint64_t cycles,
               bool shuffled);
  [[nodiscard]] std::string verdict() const;
  /// The common ops-per-cycle figure (0 until a clean request is seen).
  [[nodiscard]] std::uint64_t ops_per_cycle() const noexcept {
    return ops_per_cycle_;
  }

 private:
  std::uint64_t ops_per_cycle_ = 0;
  std::uint64_t clean_ = 0;
  std::string first_violation_;
};

/// Per-tenant FIFO: virtual completion times never decrease within a
/// stream (a tenant, or a tenant on one shard lane), observed in
/// submission order.
class fifo_check {
 public:
  explicit fifo_check(std::size_t streams) : last_(streams, -1) {}
  void observe(std::uint32_t stream, std::int64_t completion_time);
  [[nodiscard]] std::string verdict() const { return first_violation_; }
  /// Completions earlier than their predecessor's.
  [[nodiscard]] std::uint64_t inversions() const noexcept {
    return inversions_;
  }

 private:
  std::vector<std::int64_t> last_;
  std::uint64_t seen_ = 0;
  std::uint64_t inversions_ = 0;
  std::string first_violation_;
};

}  // namespace e2e

#endif  // HORAM_E2EBENCH_CHECKS_H
