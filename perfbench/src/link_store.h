// LinkStore — the benchmark's storage link model and link recorder.
//
// An ObjectStore decorator over InMemoryStore that models one storage tier
// as seen through its link:
//   - a fixed per-operation latency that every Put and Get pays on top of
//     its transfer; it does not hold the channel, so concurrent operations
//     overlap their latencies;
//   - one transfer channel per direction whose bandwidth concurrent
//     transfers SHARE: each transfer reserves `bytes / bandwidth` on the
//     channel's timeline after the transfers already reserved, so N parallel
//     fetchers see the link's bandwidth once, not N times. (A decorator that
//     sleeps each operation for its full `bytes / bandwidth` independently
//     would credit fan-out with bandwidth that does not exist.)
// A modeled wait sleeps until shortly before its end and spins the rest, so
// an operation takes its modeled time rather than that plus the host's
// wake-up delay. Metadata operations (Exists, Delete, List, SizeOf,
// TotalBytes) cost nothing: the tiers answer them from their indexes.
//
// The decorator also records, per direction, operation counts, bytes and the
// wall time callers spent inside the call, and the instant each key first
// landed (the payload is in the tier and visible to readers). The
// benchmark derives time-to-valid and time-to-far-durable from those
// instants.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/object_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct LinkModel {
  std::chrono::microseconds latency{0};
  double bytes_per_sec = 0;  // 0 = infinite bandwidth
};

struct LinkRecord {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  double busy_ms = 0;  // summed wall of the calls (overlapping calls add up)
};

class LinkStore : public cnr::storage::ObjectStore {
 public:
  // Called after a Put landed, with the key, the first bytes of the payload
  // (at most kObservedPrefix) and the landing instant.
  using PutObserver =
      std::function<void(const std::string&, std::span<const std::uint8_t>, Clock::time_point)>;
  static constexpr std::size_t kObservedPrefix = 256;

  LinkStore(LinkModel put, LinkModel get) : put_model_(put), get_model_(get) {}

  void Put(const std::string& key, std::vector<std::uint8_t> data) override;
  std::optional<std::vector<std::uint8_t>> Get(const std::string& key) override;
  bool Exists(const std::string& key) override { return inner_.Exists(key); }
  bool Delete(const std::string& key) override { return inner_.Delete(key); }
  std::vector<std::string> List(const std::string& prefix) override {
    return inner_.List(prefix);
  }
  std::uint64_t TotalBytes() override { return inner_.TotalBytes(); }
  cnr::storage::StoreStats Stats() override { return inner_.Stats(); }
  std::optional<std::uint64_t> SizeOf(const std::string& key) override {
    return inner_.SizeOf(key);
  }

  // The backing store, for the benchmark's own checks: reads through it pay
  // no modeled cost and are not recorded.
  cnr::storage::InMemoryStore& inner() { return inner_; }

  void SetPutObserver(PutObserver observer);

  LinkRecord puts() const;
  LinkRecord gets() const;
  // First landing instant of `key`, if it ever landed.
  std::optional<Clock::time_point> LandedAt(const std::string& key) const;
  // Bytes of the most recent Put of `key` (0 if never put).
  std::uint64_t PutBytes(const std::string& key) const;
  // Sum of the most recent Put size of every key containing `fragment`.
  std::uint64_t PutBytesMatching(const std::string& fragment) const;

 private:
  struct Channel {
    Clock::time_point free_at{};
  };
  // Reserves `bytes` on the channel and returns when the operation
  // completes: the end of its transfer plus the latency.
  Clock::time_point Reserve(Channel& channel, const LinkModel& model, std::uint64_t bytes,
                            Clock::time_point now);

  const LinkModel put_model_;
  const LinkModel get_model_;
  cnr::storage::InMemoryStore inner_;

  mutable std::mutex mu_;  // guards everything below
  Channel put_channel_;
  Channel get_channel_;
  LinkRecord puts_;
  LinkRecord gets_;
  std::unordered_map<std::string, Clock::time_point> landed_;
  std::unordered_map<std::string, std::uint64_t> put_bytes_;
  PutObserver observer_;
};

}  // namespace perfbench
