// Frontier bookkeeping helpers: bitmap->queue conversion and the |E|cq
// recount the switching rule's carried count is checked against.
#pragma once

#include <vector>

#include "graph/bitmap.h"
#include "graph/csr.h"
#include "graph/types.h"
#include "graph/view.h"

namespace bfsx::bfs {

/// Rebuilds `queue` (ascending order) from the set bits of `bitmap`.
void bitmap_to_queue(const graph::Bitmap& bitmap,
                     std::vector<graph::vid_t>& queue);

/// |E|cq: the number of out-edges hanging off the frontier — what
/// top-down will traverse this level, and the left operand of the
/// paper's `|E|cq < |E|/M` switch test. The traversal loops read the
/// count the step kernels carry (BfsState::frontier_edges); this O(|V|cq)
/// recount is the independent check tests compare it against.
[[nodiscard]] graph::eid_t frontier_out_edges(
    const graph::CsrGraph& g, const std::vector<graph::vid_t>& queue);

/// View overload of the |E|cq tally; same degree sum over any
/// graph::GraphView.
template <graph::GraphView V>
[[nodiscard]] graph::eid_t frontier_out_edges(
    const V& g, const std::vector<graph::vid_t>& queue) {
  graph::eid_t total = 0;
  for (graph::vid_t v : queue) total += g.out_degree(v);
  return total;
}

}  // namespace bfsx::bfs
