#include "graph/bitmap.h"

#include <algorithm>
#include <atomic>
#include <bit>

namespace bfsx::graph {

Bitmap::Bitmap(std::size_t size) : size_(size) {
  words_.resize((size + 63) / 64);  // default-init: no touch yet
  numa::parallel_fill(words_.data(), words_.size(), std::uint64_t{0});
}

void Bitmap::reset() noexcept {
  numa::parallel_fill(words_.data(), words_.size(), std::uint64_t{0});
}

void Bitmap::resize_and_reset(std::size_t size) {
  size_ = size;
  // resize leaves new words indeterminate (DefaultInitAllocator); the
  // parallel zero-fill below is the first touch, chunked like the
  // kernels' scans so pages land near their readers.
  words_.resize((size + 63) / 64);
  numa::parallel_fill(words_.data(), words_.size(), std::uint64_t{0});
}

void Bitmap::set_atomic(std::size_t pos) noexcept {
  std::atomic_ref<std::uint64_t> word(words_[pos >> 6]);
  // mem-order: relaxed — the bit itself is the entire message; no other
  // data is published through it, and readers in the same parallel
  // region only act on it after the level-step barrier orders all of
  // these RMWs anyway.
  word.fetch_or(1ULL << (pos & 63), std::memory_order_relaxed);
}

bool Bitmap::none() const noexcept {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

std::size_t Bitmap::find_first() const noexcept {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return (w << 6) +
             static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

std::size_t Bitmap::count() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

}  // namespace bfsx::graph
