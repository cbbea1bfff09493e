#include "oracle.h"

#include <stdexcept>

namespace perfbench {

std::vector<std::vector<std::int32_t>> oracle_levels(
    const bfsx::graph::CsrGraph& g,
    std::span<const bfsx::graph::vid_t> sources) {
  using bfsx::graph::vid_t;
  if (sources.empty() || sources.size() > 64 || !g.is_symmetric()) {
    throw std::invalid_argument("oracle_levels: 1..64 sources, symmetric graph");
  }
  const vid_t n = g.num_vertices();
  const auto nu = static_cast<std::size_t>(n);
  const std::uint64_t all = sources.size() == 64
                                ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << sources.size()) - 1;
  std::vector<std::vector<std::int32_t>> levels(
      sources.size(), std::vector<std::int32_t>(nu, -1));
  std::vector<std::uint64_t> seen(nu, 0);
  std::vector<std::uint64_t> frontier(nu, 0);
  std::vector<std::uint64_t> next(nu, 0);
  for (std::size_t lane = 0; lane < sources.size(); ++lane) {
    const auto s = static_cast<std::size_t>(sources[lane]);
    if (sources[lane] < 0 || sources[lane] >= n) {
      throw std::invalid_argument("oracle_levels: source out of range");
    }
    seen[s] |= std::uint64_t{1} << lane;
    frontier[s] |= std::uint64_t{1} << lane;
    levels[lane][s] = 0;
  }
  for (std::int32_t depth = 1;; ++depth) {
    bool grew = false;
#pragma omp parallel for schedule(dynamic, 1024) reduction(|| : grew)
    for (vid_t v = 0; v < n; ++v) {
      const auto vu = static_cast<std::size_t>(v);
      std::uint64_t in = 0;
      if (seen[vu] != all) {
        for (const vid_t u : g.out_neighbors(v)) {
          in |= frontier[static_cast<std::size_t>(u)];
        }
        in &= ~seen[vu];
      }
      next[vu] = in;
      if (in != 0) grew = true;
    }
    if (!grew) break;
#pragma omp parallel for schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      const auto vu = static_cast<std::size_t>(v);
      std::uint64_t bits = next[vu];
      seen[vu] |= bits;
      while (bits != 0) {
        const int lane = __builtin_ctzll(bits);
        levels[static_cast<std::size_t>(lane)][vu] = depth;
        bits &= bits - 1;
      }
    }
    frontier.swap(next);
  }
  return levels;
}

}  // namespace perfbench
