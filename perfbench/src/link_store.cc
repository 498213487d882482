#include "link_store.h"

#include <algorithm>
#include <thread>

namespace perfbench {

namespace {

// Waits until `deadline`: sleeps to shortly before it, then spins. A plain
// sleep wakes 60 µs or more late on a virtual machine, by an amount that
// varies with the host's load; that error would be added to every modeled
// operation and make the link as noisy as the host.
void WaitUntil(Clock::time_point deadline) {
  constexpr auto kSpin = std::chrono::microseconds(100);
  if (Clock::now() < deadline - kSpin) std::this_thread::sleep_until(deadline - kSpin);
  while (Clock::now() < deadline) {
  }
}

}  // namespace

Clock::time_point LinkStore::Reserve(Channel& channel, const LinkModel& model,
                                     std::uint64_t bytes, Clock::time_point now) {
  Clock::time_point transferred = now;
  if (model.bytes_per_sec > 0) {
    const auto start = std::max(now, channel.free_at);
    const auto xfer = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(bytes) / model.bytes_per_sec));
    channel.free_at = start + xfer;
    transferred = channel.free_at;
  }
  // The latency is paid on top of the transfer, but does not hold the
  // channel: concurrent operations overlap their latencies.
  return transferred + model.latency;
}

void LinkStore::Put(const std::string& key, std::vector<std::uint8_t> data) {
  const auto t0 = Clock::now();
  const std::uint64_t bytes = data.size();
  Clock::time_point done;
  PutObserver observer;
  {
    std::lock_guard lock(mu_);
    done = Reserve(put_channel_, put_model_, bytes, t0);
    observer = observer_;
  }
  WaitUntil(done);
  std::vector<std::uint8_t> prefix;
  if (observer) {
    prefix.assign(data.begin(),
                  data.begin() + static_cast<std::ptrdiff_t>(std::min(bytes, kObservedPrefix)));
  }
  inner_.Put(key, std::move(data));
  const auto landed = Clock::now();
  {
    std::lock_guard lock(mu_);
    puts_.ops += 1;
    puts_.bytes += bytes;
    puts_.busy_ms += std::chrono::duration<double, std::milli>(landed - t0).count();
    landed_.try_emplace(key, landed);
    put_bytes_[key] = bytes;
  }
  if (observer) observer(key, prefix, landed);
}

std::optional<std::vector<std::uint8_t>> LinkStore::Get(const std::string& key) {
  const auto t0 = Clock::now();
  auto data = inner_.Get(key);
  const std::uint64_t bytes = data ? data->size() : 0;
  Clock::time_point done;
  {
    std::lock_guard lock(mu_);
    done = Reserve(get_channel_, get_model_, bytes, t0);
  }
  WaitUntil(done);
  const auto t1 = Clock::now();
  std::lock_guard lock(mu_);
  gets_.ops += 1;
  gets_.bytes += bytes;
  gets_.busy_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
  return data;
}

void LinkStore::SetPutObserver(PutObserver observer) {
  std::lock_guard lock(mu_);
  observer_ = std::move(observer);
}

LinkRecord LinkStore::puts() const {
  std::lock_guard lock(mu_);
  return puts_;
}

LinkRecord LinkStore::gets() const {
  std::lock_guard lock(mu_);
  return gets_;
}

std::optional<Clock::time_point> LinkStore::LandedAt(const std::string& key) const {
  std::lock_guard lock(mu_);
  const auto it = landed_.find(key);
  if (it == landed_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t LinkStore::PutBytes(const std::string& key) const {
  std::lock_guard lock(mu_);
  const auto it = put_bytes_.find(key);
  return it == put_bytes_.end() ? 0 : it->second;
}

std::uint64_t LinkStore::PutBytesMatching(const std::string& fragment) const {
  std::lock_guard lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, bytes] : put_bytes_) {
    if (key.find(fragment) != std::string::npos) total += bytes;
  }
  return total;
}

}  // namespace perfbench
