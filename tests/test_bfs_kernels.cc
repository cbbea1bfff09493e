// Unit tests for the top-down and bottom-up level-step kernels.
#include <gtest/gtest.h>

#include "bfs/bottomup.h"
#include "bfs/frontier.h"
#include "bfs/topdown.h"
#include "graph/builder.h"
#include "graph/generators.h"

namespace bfsx::bfs {
namespace {

using graph::build_csr;
using graph::make_binary_tree;
using graph::make_path;
using graph::make_star;

TEST(TopDownStep, ExpandsOneLevelOfAPath) {
  const CsrGraph g = build_csr(make_path(5));
  BfsState state(g, 0);
  const TopDownStats s = top_down_step(g, state);
  EXPECT_EQ(s.frontier_vertices, 1);
  EXPECT_EQ(s.frontier_edges, 1);  // vertex 0 has degree 1
  EXPECT_EQ(s.next_vertices, 1);
  EXPECT_EQ(state.current_level, 1);
  EXPECT_EQ(state.parent[1], 0);
  EXPECT_EQ(state.level[1], 1);
  ASSERT_EQ(state.frontier_queue.size(), 1u);
  EXPECT_EQ(state.frontier_queue[0], 1);
  EXPECT_TRUE(state.frontier_bitmap.test(1));
}

TEST(TopDownStep, StarExpandsAllSpokesAtOnce) {
  const CsrGraph g = build_csr(make_star(10));
  BfsState state(g, 0);
  const TopDownStats s = top_down_step(g, state);
  EXPECT_EQ(s.frontier_edges, 9);
  EXPECT_EQ(s.next_vertices, 9);
  EXPECT_EQ(state.reached, 10);
  for (vid_t v = 1; v < 10; ++v) EXPECT_EQ(state.parent[v], 0);
}

TEST(TopDownStep, EachVertexGetsExactlyOneParent) {
  // Binary tree: both children of the root expand simultaneously; their
  // shared grandchildren must be claimed exactly once.
  const CsrGraph g = build_csr(make_binary_tree(31));
  BfsState state(g, 0);
  while (!state.frontier_empty()) top_down_step(g, state);
  for (vid_t v = 1; v < 31; ++v) {
    EXPECT_EQ(state.parent[static_cast<std::size_t>(v)], (v - 1) / 2);
  }
}

TEST(BottomUpStep, FindsParentsForAdjacentUnvisited) {
  const CsrGraph g = build_csr(make_star(6));
  BfsState state(g, 0);
  const BottomUpStats s = bottom_up_step(g, state);
  EXPECT_EQ(s.unvisited_vertices, 5);
  EXPECT_EQ(s.next_vertices, 5);
  EXPECT_EQ(state.reached, 6);
  for (vid_t v = 1; v < 6; ++v) EXPECT_EQ(state.parent[v], 0);
}

TEST(BottomUpStep, CountsHitAndMissScans) {
  // Path 0-1-2-3: from root 0, a bottom-up level scans 1 (hit via 0),
  // 2 (misses: neighbours 1,3 not in frontier), 3 (miss).
  const CsrGraph g = build_csr(make_path(4));
  BfsState state(g, 0);
  const BottomUpStats s = bottom_up_step(g, state);
  EXPECT_EQ(s.next_vertices, 1);
  EXPECT_EQ(s.edges_scanned_hit, 1);   // vertex 1 found 0 immediately
  EXPECT_EQ(s.edges_scanned_miss, 3);  // vertex 2 walked {1,3}, vertex 3 walked {2}
  EXPECT_EQ(s.edges_scanned(), 4);
}

TEST(BottomUpStep, SameLevelVertexCannotParentSameLevel) {
  // Cycle of 4 from root 0: level 1 = {1, 3}. Vertex 2 is adjacent to
  // both but must land in level 2, never level 1.
  const CsrGraph g = build_csr(graph::make_cycle(4));
  BfsState state(g, 0);
  bottom_up_step(g, state);
  EXPECT_EQ(state.level[1], 1);
  EXPECT_EQ(state.level[3], 1);
  EXPECT_EQ(state.level[2], -1);  // not yet
  bottom_up_step(g, state);
  EXPECT_EQ(state.level[2], 2);
}

TEST(BottomUpProbe, MatchesStepWithoutMutation) {
  const CsrGraph g = build_csr(make_binary_tree(63));
  BfsState state(g, 0);
  top_down_step(g, state);  // move to level 1 so the probe is non-trivial

  const BottomUpStats probe = bottom_up_probe(g, state);
  const auto parent_before = state.parent;
  const auto reached_before = state.reached;
  // Probe must not have touched the state.
  EXPECT_EQ(state.parent, parent_before);
  EXPECT_EQ(state.reached, reached_before);

  const BottomUpStats step = bottom_up_step(g, state);
  EXPECT_EQ(probe.unvisited_vertices, step.unvisited_vertices);
  EXPECT_EQ(probe.edges_scanned_hit, step.edges_scanned_hit);
  EXPECT_EQ(probe.edges_scanned_miss, step.edges_scanned_miss);
  EXPECT_EQ(probe.next_vertices, step.next_vertices);
}

TEST(MixedSteps, DirectionsInterleaveCleanly) {
  // Alternate TD/BU on a tree and verify the final parent map is the
  // exact tree structure regardless of the direction sequence.
  const CsrGraph g = build_csr(make_binary_tree(127));
  BfsState state(g, 0);
  int level = 0;
  while (!state.frontier_empty()) {
    if (level % 2 == 0) {
      top_down_step(g, state);
    } else {
      bottom_up_step(g, state);
    }
    ++level;
  }
  EXPECT_EQ(state.reached, 127);
  for (vid_t v = 1; v < 127; ++v) {
    EXPECT_EQ(state.parent[static_cast<std::size_t>(v)], (v - 1) / 2);
  }
}

TEST(BottomUpStep, CandidateListShrinksBelowNAfterFirstLevel) {
  // Zero-rescan acceptance: after the first bottom-up level the scan
  // trip count must be the compacted unvisited list, strictly below n,
  // and it must shrink by exactly the discoveries of each level.
  const CsrGraph g = build_csr(make_binary_tree(127));
  const vid_t n = g.num_vertices();
  BfsState state(g, 0);

  const BottomUpStats first = bottom_up_step(g, state);
  // Priming happens after the root is visited, so even the first level
  // iterates n-1 candidates, and the list is exact afterwards.
  EXPECT_EQ(first.candidates, n - 1);
  EXPECT_EQ(static_cast<vid_t>(state.unvisited.size()),
            n - 1 - first.next_vertices);

  vid_t expected = n - 1 - first.next_vertices;
  while (!state.frontier_empty()) {
    const BottomUpStats s = bottom_up_step(g, state);
    EXPECT_EQ(s.candidates, expected);
    EXPECT_LT(s.candidates, n);
    EXPECT_EQ(s.unvisited_vertices, s.candidates);  // list is exact
    expected -= s.next_vertices;
  }
  EXPECT_EQ(state.reached, n);
}

TEST(BottomUpStep, ScratchBitmapStaysClearBetweenLevels) {
  // The reused next-frontier bitmap must return to all-zero after every
  // step (dirty-word wipe), or a later level would inherit phantom
  // frontier bits.
  const CsrGraph g = build_csr(graph::make_cycle(64));
  BfsState state(g, 0);
  EXPECT_EQ(state.bu_scratch.count(), 0u);
  while (!state.frontier_empty()) {
    bottom_up_step(g, state);
    EXPECT_EQ(state.bu_scratch.count(), 0u);
  }
  EXPECT_EQ(state.reached, 64);
}

TEST(BottomUpStep, CandidateListSurvivesTopDownInterleaving) {
  // A top-down step visits vertices behind the candidate list's back;
  // the next bottom-up step must skip those stragglers (keeping every
  // counter exact) and compact them away.
  const CsrGraph g = build_csr(make_binary_tree(255));
  BfsState state(g, 0);
  bottom_up_step(g, state);  // primes the list
  const std::size_t before = state.unvisited.size();
  top_down_step(g, state);   // visits level-2 vertices, list now stale
  const BottomUpStats s = bottom_up_step(g, state);
  EXPECT_EQ(static_cast<std::size_t>(s.candidates), before);
  EXPECT_LT(s.unvisited_vertices, s.candidates);  // stragglers skipped
  EXPECT_EQ(static_cast<vid_t>(state.unvisited.size()),
            static_cast<vid_t>(255) - state.reached);
  while (!state.frontier_empty()) bottom_up_step(g, state);
  for (vid_t v = 1; v < 255; ++v) {
    EXPECT_EQ(state.parent[static_cast<std::size_t>(v)], (v - 1) / 2);
  }
}

TEST(FrontierHelpers, ParallelBitmapToQueueMatchesSerialDecode) {
  // Big enough (> 4096 words) to take the popcount-prefix parallel
  // path; the result must be the exact ascending order of for_each_set.
  const std::size_t n = 300000;
  graph::Bitmap bm(n);
  std::vector<vid_t> expect;
  for (std::size_t v = 0; v < n; v += 1 + (v % 97)) {
    bm.set(v);
    expect.push_back(static_cast<vid_t>(v));
  }
  std::vector<vid_t> queue{1, 2, 3};  // stale contents must be replaced
  bitmap_to_queue(bm, queue);
  EXPECT_EQ(queue, expect);
}

TEST(FrontierHelpers, QueueBitmapRoundTrip) {
  graph::Bitmap bm(100);
  const std::vector<vid_t> q = {3, 17, 64, 99};
  for (vid_t v : q) bm.set(static_cast<std::size_t>(v));
  EXPECT_EQ(bm.count(), 4u);
  std::vector<vid_t> back;
  bitmap_to_queue(bm, back);
  EXPECT_EQ(back, q);
}

TEST(FrontierHelpers, OutEdgeCount) {
  const CsrGraph g = build_csr(make_star(5));
  EXPECT_EQ(frontier_out_edges(g, {0}), 4);
  EXPECT_EQ(frontier_out_edges(g, {1, 2}), 2);
  EXPECT_EQ(frontier_out_edges(g, {}), 0);
}

}  // namespace
}  // namespace bfsx::bfs
