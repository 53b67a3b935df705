#include "checks.h"

#include <algorithm>

namespace e2e {

namespace {

std::string first_difference(std::span<const std::uint8_t> got,
                             std::span<const std::uint8_t> expected) {
  if (got.size() != expected.size()) {
    return "size " + std::to_string(got.size()) + " != expected " +
           std::to_string(expected.size());
  }
  const auto diff =
      std::mismatch(got.begin(), got.end(), expected.begin()).first;
  if (diff == got.end()) {
    return {};
  }
  const auto at = static_cast<std::size_t>(diff - got.begin());
  return "byte " + std::to_string(at) + " is " + std::to_string(got[at]) +
         ", expected " + std::to_string(expected[at]);
}

}  // namespace

std::string check_payload(std::span<const std::uint8_t> got,
                          std::span<const std::uint8_t> expected,
                          std::string_view what) {
  const std::string diff = first_difference(got, expected);
  return diff.empty() ? diff : std::string(what) + ": " + diff;
}

std::string check_one_of(std::span<const std::uint8_t> got,
                         std::span<const std::vector<std::uint8_t>> candidates,
                         std::string_view what) {
  for (const std::vector<std::uint8_t>& candidate : candidates) {
    if (first_difference(got, candidate).empty()) {
      return {};
    }
  }
  return std::string(what) + ": matches none of " +
         std::to_string(candidates.size()) + " admissible values";
}

std::string check_conservation(std::uint64_t issued,
                               std::uint64_t stats_requests,
                               std::optional<std::uint64_t> tenant_completed) {
  if (stats_requests != issued) {
    return "conservation: issued " + std::to_string(issued) +
           " but stats().requests = " + std::to_string(stats_requests);
  }
  if (tenant_completed && *tenant_completed != issued) {
    return "conservation: issued " + std::to_string(issued) +
           " but tenants completed " + std::to_string(*tenant_completed);
  }
  return {};
}

std::string check_padded_rounds(std::uint64_t rounds, std::uint64_t round_cap,
                                std::uint64_t shards,
                                std::uint64_t physical_accesses,
                                std::uint64_t pad_requests) {
  if (rounds * round_cap * shards == physical_accesses + pad_requests) {
    return {};
  }
  return "padded rounds: " + std::to_string(rounds) + " x " +
         std::to_string(round_cap) + " x " + std::to_string(shards) +
         " != " + std::to_string(physical_accesses) + " physical + " +
         std::to_string(pad_requests) + " pad";
}

std::string check_busy(std::int64_t busy, std::int64_t elapsed,
                       std::string_view lane) {
  if (busy >= 0 && busy <= elapsed) {
    return {};
  }
  return std::string(lane) + ": busy " + std::to_string(busy) +
         " ns > elapsed " + std::to_string(elapsed) + " ns";
}

void bus_shape_check::observe(std::uint64_t device_ops, std::uint64_t cycles,
                              bool shuffled) {
  if (shuffled || cycles == 0) {
    return;
  }
  ++clean_;
  if (device_ops % cycles != 0 ||
      (ops_per_cycle_ != 0 && device_ops / cycles != ops_per_cycle_)) {
    if (first_violation_.empty()) {
      first_violation_ = "bus shape: request " + std::to_string(clean_) +
                         " moved " + std::to_string(device_ops) +
                         " device ops over " + std::to_string(cycles) +
                         " cycles, others " +
                         std::to_string(ops_per_cycle_) + " per cycle";
    }
    return;
  }
  ops_per_cycle_ = device_ops / cycles;
}

std::string bus_shape_check::verdict() const {
  if (!first_violation_.empty()) {
    return first_violation_;
  }
  return clean_ == 0 ? "bus shape: no request served without a shuffle"
                     : std::string();
}

void fifo_check::observe(std::uint32_t stream, std::int64_t completion_time) {
  ++seen_;
  if (stream >= last_.size()) {
    if (first_violation_.empty()) {
      first_violation_ = "fifo: unknown stream " + std::to_string(stream);
    }
    return;
  }
  if (completion_time < last_[stream]) {
    ++inversions_;
    if (first_violation_.empty()) {
      first_violation_ = "fifo: stream " + std::to_string(stream) +
                         " completion " + std::to_string(completion_time) +
                         " ns before its predecessor's " +
                         std::to_string(last_[stream]) + " ns (request " +
                         std::to_string(seen_) + ")";
    }
  }
  last_[stream] = std::max(last_[stream], completion_time);
}

}  // namespace e2e
