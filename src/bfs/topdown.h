// Parallel top-down BFS level step (paper Algorithm 1, lines 6-13).
//
// The kernel is a template over any graph::GraphView (graph/view.h), so
// the identical loop runs on CSR storage (through graph::CsrGraphView)
// and on implicit successor functions. The historical CsrGraph overload
// below forwards through the adapter, which keeps every existing call
// site source-compatible and makes CSR bit-equality structural rather
// than promised.
//
// Scratch discipline: the per-thread discovery buffers and the merged
// next queue live in BfsState (td_local_next / td_next), so steady-state
// levels perform no allocation — the buffers reach their high-water
// capacity after the widest level and are recycled by the
// queue-swap at the end of each step (test_mem_tuning pins this).
#pragma once

#include <cstddef>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bfs/mem_tuning.h"
#include "bfs/state.h"
#include "check/contract.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Exact work counters for one top-down level. These are the inputs to
/// the architecture cost model and to the switching heuristic.
struct TopDownStats {
  vid_t frontier_vertices = 0;  // |V|cq
  eid_t frontier_edges = 0;     // |E|cq — every one of these is traversed
  vid_t next_vertices = 0;      // |V| of the produced next queue
};

/// Levels whose |E|cq is below this many edges run on the calling
/// thread: below it, the OpenMP fork/join, dynamic chunk hand-out and
/// per-thread merge cost more than the team saves. Set from the measured
/// crossover between one thread and a 4-thread team (DESIGN.md §5b): on
/// R-MAT the team wins from about 1K edges, on the 2-D grid it loses up
/// to the largest grid frontier (~8K edges), and 8K is the cutoff that
/// minimises the summed time of both.
inline constexpr eid_t kTopDownTeamMinEdges = 8192;

/// Advances `state` by one level using the top-down direction: each
/// frontier vertex tries to claim its unvisited out-neighbours
/// (Algorithm 1 lines 7-12). Parallelised over frontier vertices with
/// OpenMP once |E|cq reaches kTopDownTeamMinEdges; discovered vertices
/// are claimed with an atomic test-and-set so each vertex gets exactly
/// one parent. The out-degrees of the claimed vertices are summed in
/// the same loop, which carries the next level's |E|cq in the state.
///
/// `tuning.prefetch` (bfs/mem_tuning.h): with distance d > 0 and a
/// PrefetchableView, each iteration prefetches the adjacency row of
/// queue[i + d] and — inside the row walk — the visited-bitmap word of
/// the neighbour d slots ahead, hiding the two dependent random-access
/// misses of the gather. d == 0 (the default) takes the plain loop;
/// non-prefetchable views compile the hints out entirely. Prefetching
/// never changes which vertices are discovered or in what order.
///
/// On return the state's frontier (queue + bitmap), visited set, parent
/// and level maps, current_level, reached count and carried out-degree
/// sums are all updated.
template <graph::GraphView V>
TopDownStats top_down_step(const V& g, BfsState& state, MemTuning tuning) {
  TopDownStats stats;
  stats.frontier_vertices = static_cast<vid_t>(state.frontier_queue.size());
  stats.frontier_edges = state.frontier_edges(g);

  const auto& queue = state.frontier_queue;
  const std::int32_t next_level = state.current_level + 1;

  std::size_t dist = 0;
  if constexpr (graph::PrefetchableView<V>) {
    if (tuning.prefetch.enabled()) {
      dist = static_cast<std::size_t>(tuning.prefetch.distance);
    }
  }

  // Expands queue[i] into `mine`; returns the claimed vertices' summed
  // out-degree.
  const auto expand = [&g, &state, &queue, dist, next_level](
                          std::size_t i, std::vector<vid_t>& mine) {
    const vid_t u = queue[i];
    eid_t claimed_edges = 0;
    const auto visit = [&g, &state, &mine, &claimed_edges, u,
                        next_level](vid_t v) {
      // Algorithm 1 line 9: visited check, fused with the claim so two
      // frontier vertices cannot both adopt v.
      if (state.visited.test_and_set_atomic(static_cast<std::size_t>(v))) {
        state.parent[static_cast<std::size_t>(v)] = u;
        state.level[static_cast<std::size_t>(v)] = next_level;
        mine.push_back(v);
        claimed_edges += g.out_degree(v);
      }
    };
    if constexpr (graph::PrefetchableView<V>) {
      if (dist > 0) {
        // Row-level lookahead: pull queue[i + d]'s adjacency row in
        // while this row is being walked.
        if (i + dist < queue.size()) g.prefetch_out_row(queue[i + dist]);
        // Word-level lookahead inside the row: the visited word of the
        // neighbour d slots ahead, write intent (test_and_set is next).
        g.for_each_out_neighbor_ahead(
            u, static_cast<int>(dist),
            [&state](vid_t w) {
              state.visited.prefetch_write(static_cast<std::size_t>(w));
            },
            visit);
        return claimed_edges;
      }
    }
    g.for_each_out_neighbor(u, visit);
    return claimed_edges;
  };

#ifdef _OPENMP
  const int num_threads = omp_get_max_threads();
#else
  const int num_threads = 1;
#endif
  // Discoveries land in the state-owned next queue, which is swapped
  // with the frontier below: the old frontier's storage becomes the
  // next level's target — no allocation once capacities plateau.
  auto& next = state.td_next;
  next.clear();
  auto& local_next = state.td_local_next;
  if (local_next.size() < static_cast<std::size_t>(num_threads)) {
    local_next.resize(static_cast<std::size_t>(num_threads));
  }
  for (auto& part : local_next) part.clear();  // capacity retained
  eid_t next_edges = 0;
  if (num_threads == 1 || stats.frontier_edges < kTopDownTeamMinEdges) {
    for (std::size_t i = 0; i < queue.size(); ++i) {
      next_edges += expand(i, next);
    }
  } else {
#ifdef _OPENMP
#pragma omp parallel reduction(+ : next_edges)
#endif
    {
#ifdef _OPENMP
      // analyze: allow(nested-chunking) tid only selects this thread's
      // private scratch slot; in a nested 1-thread team tid is 0 and the
      // slot count (omp_get_max_threads, taken outside) stays an upper
      // bound, so no work is partitioned by a stale team size.
      const int tid = omp_get_thread_num();
#else
      const int tid = 0;
#endif
      auto& mine = local_next[static_cast<std::size_t>(tid)];
#ifdef _OPENMP
#pragma omp for schedule(dynamic, 64) nowait
#endif
      for (std::size_t i = 0; i < queue.size(); ++i) {
        next_edges += expand(i, mine);
      }
    }
    // Merge in thread-id order.
    std::size_t total = 0;
    for (const auto& part : local_next) total += part.size();
    next.reserve(total);
    for (const auto& part : local_next) {
      next.insert(next.end(), part.begin(), part.end());
    }
  }

  stats.next_vertices = static_cast<vid_t>(next.size());
  state.finish_level(stats.next_vertices, next_edges);
  state.frontier_queue.swap(next);
  // Word-by-word bitmap sync: `next` now lists the outgoing frontier,
  // whose words hold every set bit, so zeroing them clears the bitmap in
  // O(|frontier|) stores instead of an O(n/64) reset.
  for (vid_t v : next) {
    state.frontier_bitmap.clear_word(static_cast<std::size_t>(v));
  }
  for (vid_t v : state.frontier_queue) {
    state.frontier_bitmap.set(static_cast<std::size_t>(v));
  }
  // Catches a lost atomic claim (parent written without the level, a
  // double discovery) at the level it happened, including the straggler
  // bookkeeping this step leaves in a primed bottom-up candidate list.
  BFSX_PARANOID(state.assert_invariants(g.num_vertices()));
  return stats;
}

/// Untuned entry point: default knobs, bit-identical to the historical
/// kernel (the golden-trace test runs through here).
template <graph::GraphView V>
TopDownStats top_down_step(const V& g, BfsState& state) {
  return top_down_step(g, state, MemTuning{});
}

/// CSR entry points: forward through the zero-overhead adapter.
TopDownStats top_down_step(const CsrGraph& g, BfsState& state);
TopDownStats top_down_step(const CsrGraph& g, BfsState& state,
                           MemTuning tuning);

}  // namespace bfsx::bfs
