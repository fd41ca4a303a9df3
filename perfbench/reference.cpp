#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <functional>

namespace perfbench {

namespace {

constexpr std::size_t kEvents = 4096;         // heap entries, always full
constexpr std::size_t kTableSlots = 1 << 16;  // 512 KiB of counters
constexpr std::size_t kCells = 1 << 18;       // 1 MiB of scattered cells
constexpr int kChunkOps = 150000;
// One chunk's duration on a quiet host: about the 5th percentile of chunk
// times on the 4-vCPU Xeon VM (GCC Release build) the baseline was taken on,
// where the median chunk took 0.026 s.
constexpr double kQuietChunkS = 0.020;

using Event = std::pair<std::uint64_t, std::uint32_t>;

}  // namespace

HostReference::HostReference()
    : table_(kTableSlots), cells_(kCells) {
  heap_.reserve(kEvents);
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    heap_.emplace_back(next() % 100000, i);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  chunk_s();  // fault the tables in and warm the caches
}

std::uint64_t HostReference::next() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

double HostReference::chunk_s() {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kChunkOps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    Event& e = heap_.back();
    std::uint64_t& slot = table_[e.second % kTableSlots];
    slot += e.first;
    std::uint32_t& cell = cells_[next() % kCells];
    acc_ = (cell & 1U) != 0 ? acc_ + slot : acc_ ^ e.first;
    cell += e.second;
    e = {e.first + 1 + next() % 1000,
         static_cast<std::uint32_t>(e.second + acc_)};
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double HostReference::speed(double before_s, double after_s) {
  return kQuietChunkS / (0.5 * (before_s + after_s));
}

}  // namespace perfbench
