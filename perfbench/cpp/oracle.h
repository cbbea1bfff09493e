// The serve workloads' answer oracle: exact BFS levels from up to 64
// sources at once, over a symmetric CSR.
//
// Deliberately not bfs::ms_bfs — the serving engine answers batches
// with that kernel, so checking it against itself would prove nothing.
// This is the plainest bit-parallel formulation: every level, each
// vertex not yet reached by all lanes ORs its neighbours' frontier
// masks (a pull, so no two threads ever write one word).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"

namespace perfbench {

/// levels[i][v] is the BFS level of v from sources[i], -1 if
/// unreached. Requires 1..64 sources and a symmetric graph.
[[nodiscard]] std::vector<std::vector<std::int32_t>> oracle_levels(
    const bfsx::graph::CsrGraph& g,
    std::span<const bfsx::graph::vid_t> sources);

}  // namespace perfbench
