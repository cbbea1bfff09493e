#include "bfs/frontier.h"

#include <algorithm>
#include <cstdint>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace bfsx::bfs {

void bitmap_to_queue(const graph::Bitmap& bitmap,
                     std::vector<graph::vid_t>& queue) {
  const std::size_t nwords = bitmap.word_count();
#ifdef _OPENMP
  // Each worker decodes a contiguous word range into its own slice of
  // the output (slice starts come from a popcount prefix sum), so the
  // queue is ascending — and bit-identical to the serial decode — for
  // any thread count. The chunking assumes the team really has
  // `workers` threads, which a nested region does not deliver (it runs
  // with 1) — decode serially there.
  const int workers = nwords >= 4096 && !omp_in_parallel()
                          ? std::max(1, omp_get_max_threads())
                          : 1;
  if (workers > 1) {
    const std::uint64_t* words = bitmap.words();
    std::vector<std::size_t> start(static_cast<std::size_t>(workers) + 1, 0);
#pragma omp parallel num_threads(workers)
    {
      const int t = omp_get_thread_num();
      const std::size_t lo = nwords * static_cast<std::size_t>(t) /
                             static_cast<std::size_t>(workers);
      const std::size_t hi = nwords * (static_cast<std::size_t>(t) + 1) /
                             static_cast<std::size_t>(workers);
      std::size_t count = 0;
      for (std::size_t w = lo; w < hi; ++w) {
        count += static_cast<std::size_t>(__builtin_popcountll(words[w]));
      }
      start[static_cast<std::size_t>(t) + 1] = count;
    }
    for (int t = 0; t < workers; ++t) {
      start[static_cast<std::size_t>(t) + 1] +=
          start[static_cast<std::size_t>(t)];
    }
    queue.resize(start[static_cast<std::size_t>(workers)]);
    graph::vid_t* out = queue.data();
#pragma omp parallel num_threads(workers)
    {
      const int t = omp_get_thread_num();
      const std::size_t lo = nwords * static_cast<std::size_t>(t) /
                             static_cast<std::size_t>(workers);
      const std::size_t hi = nwords * (static_cast<std::size_t>(t) + 1) /
                             static_cast<std::size_t>(workers);
      std::size_t w_out = start[static_cast<std::size_t>(t)];
      for (std::size_t w = lo; w < hi; ++w) {
        std::uint64_t word = words[w];
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          out[w_out++] = static_cast<graph::vid_t>(
              (w << 6) + static_cast<std::size_t>(bit));
          word &= word - 1;
        }
      }
    }
    return;
  }
#else
  (void)nwords;
#endif
  queue.clear();
  bitmap.for_each_set([&queue](graph::vid_t v) { queue.push_back(v); });
}

graph::eid_t frontier_out_edges(const graph::CsrGraph& g,
                                const std::vector<graph::vid_t>& queue) {
  graph::eid_t total = 0;
  for (graph::vid_t v : queue) total += g.out_degree(v);
  return total;
}

}  // namespace bfsx::bfs
