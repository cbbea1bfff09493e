// The step kernels carry |E|cq and the component's out-degree total in
// BfsState instead of recounting them (BfsState::frontier_edges,
// take_result). These tests hold every traversal loop that advances a
// BfsState to independent recounts:
//   * each level's |E|cq equals frontier_out_edges over the frontier
//     queue (step loops) or the out-degree sum over the vertices the
//     result places at that level (engines, through their trace sink);
//   * edges_in_component equals an O(V) out-degree recount.
// Covered: the native and scenario td/bu/hybrid engines on R-MAT, the
// grid and a DeltaCsr epoch; the simulated and distributed drivers;
// run_serial and graph500::reference_bfs. The top-down step's
// one-thread and team paths are compared on frontiers straddling
// kTopDownTeamMinEdges, and the frontier bitmap is checked against the
// queue after direction switches. Everything runs at 1 and 4 threads.

#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bfs/bottomup.h"
#include "bfs/drivers.h"
#include "bfs/frontier.h"
#include "bfs/state_pool.h"
#include "bfs/topdown.h"
#include "bfs/validate.h"
#include "check/report.h"
#include "core/adaptive_bfs.h"
#include "core/cross_arch_bfs.h"
#include "core/hybrid_policy.h"
#include "dist/dist_bfs.h"
#include "graph/builder.h"
#include "graph/delta_csr.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/rmat.h"
#include "graph/scenario.h"
#include "graph/view.h"
#include "graph500/native_engine.h"
#include "graph500/reference_bfs.h"
#include "graph500/scenario_engine.h"
#include "graph500/view_engine.h"
#include "obs/sink.h"
#include "sim/cluster.h"
#include "sim/machine.h"

namespace bfsx {
namespace {

using bfs::BfsResult;
using bfs::BfsState;
using graph::CsrGraph;
using graph::CsrGraphView;
using graph::eid_t;
using graph::vid_t;

/// Records the events one traversal emits.
class Recorder final : public obs::TraceSink {
 public:
  void on_run_begin(const obs::RunEvent&) override {
    ++begins;
    levels.clear();
  }
  void on_level(const obs::LevelEvent& e) override {
    if (e.kind == obs::LevelEvent::Kind::kLevel) levels.push_back(e);
  }
  void on_run_end(const obs::RunEvent& e) override {
    ++ends;
    end_edges = e.edges_in_component;
  }

  int begins = 0;
  int ends = 0;
  eid_t end_edges = -1;
  std::vector<obs::LevelEvent> levels;
};

std::shared_ptr<const CsrGraph> rmat_graph(int scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edgefactor = 8;
  p.seed = seed;
  return std::make_shared<const CsrGraph>(
      graph::build_csr(graph::generate_rmat(p)));
}

CsrGraph directed_er_graph() {
  graph::BuildOptions opts;
  opts.symmetrize = false;
  return graph::build_directed_csr(graph::make_erdos_renyi(600, 4'000, 99),
                                   opts);
}

/// A DeltaCsr epoch over an R-MAT base: inserts (one grows the vertex
/// set) and removals, the shape the serve layer publishes under churn.
graph::DeltaCsr delta_epoch(const std::shared_ptr<const CsrGraph>& base) {
  const std::vector<graph::Edge> inserts = {
      {5, 600}, {6, 601}, {7, base->num_vertices() + 3}};
  std::vector<graph::Edge> removes;
  for (vid_t u = 0; u < base->num_vertices() && removes.size() < 4; u += 37) {
    if (base->out_degree(u) > 0) {
      removes.push_back({u, base->out_neighbors(u)[0]});
    }
  }
  return graph::DeltaCsr::apply(base, nullptr, inserts, removes);
}

/// O(V) out-degree recount over the reached vertices; halved for a
/// symmetric graph, like the Graph 500 TEPS numerator.
template <typename G>
eid_t recount_component_edges(const G& g, const BfsResult& r) {
  eid_t directed = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (r.level[static_cast<std::size_t>(v)] >= 0) directed += g.out_degree(v);
  }
  return g.is_symmetric() ? directed / 2 : directed;
}

/// Out-degree sum and vertex count per BFS level, recounted from the
/// result's level map.
template <typename G>
void recount_levels(const G& g, const BfsResult& r, std::vector<eid_t>& edges,
                    std::vector<vid_t>& vertices) {
  edges.clear();
  vertices.clear();
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const std::int32_t lv = r.level[static_cast<std::size_t>(v)];
    if (lv < 0) continue;
    const auto l = static_cast<std::size_t>(lv);
    if (edges.size() <= l) {
      edges.resize(l + 1, 0);
      vertices.resize(l + 1, 0);
    }
    edges[l] += g.out_degree(v);
    ++vertices[l];
  }
}

/// One traced traversal's level events and result against the
/// recounts: every level present once, in order, with the recounted
/// |V|cq and |E|cq, and the component total on both the result and the
/// run_end event.
template <typename G>
void expect_trace_matches_recount(const G& g, const BfsResult& r,
                                  const Recorder& rec,
                                  const std::string& what) {
  std::vector<eid_t> edges;
  std::vector<vid_t> vertices;
  recount_levels(g, r, edges, vertices);
  ASSERT_EQ(rec.levels.size(), edges.size()) << what;
  for (std::size_t i = 0; i < rec.levels.size(); ++i) {
    const obs::LevelEvent& e = rec.levels[i];
    ASSERT_EQ(e.level, static_cast<std::int32_t>(i)) << what;
    EXPECT_EQ(e.frontier_vertices, vertices[i]) << what << " level " << i;
    EXPECT_EQ(e.frontier_edges, edges[i]) << what << " level " << i;
  }
  const eid_t total = recount_component_edges(g, r);
  EXPECT_EQ(r.edges_in_component, total) << what;
  EXPECT_EQ(rec.end_edges, total) << what;
}

enum class Plan { kTopDown, kBottomUp, kHybrid, kAlternate };

/// Steps a state to completion under `plan`, checking at every level
/// that the carried |E|cq equals frontier_out_edges over the queue and
/// that every inter-step invariant holds — among them that the frontier
/// bitmap holds exactly the queue's vertices. kAlternate repeats
/// TD, TD, BU, BU, TD, BU, so each sync direction follows both itself
/// and the other.
template <typename G>
BfsResult step_checked(const G& g, vid_t root, Plan plan,
                       const std::string& what) {
  const core::HybridPolicy policy{};
  BfsState state(g.num_vertices(), root);
  int step = 0;
  while (!state.frontier_empty()) {
    const eid_t carried = state.frontier_edges(g);
    EXPECT_EQ(carried, bfs::frontier_out_edges(g, state.frontier_queue))
        << what << " level " << state.current_level;
    bool top_down = true;
    switch (plan) {
      case Plan::kTopDown: top_down = true; break;
      case Plan::kBottomUp: top_down = false; break;
      case Plan::kHybrid:
        top_down = policy.decide(
                       carried,
                       static_cast<vid_t>(state.frontier_queue.size()),
                       g.num_edges(), g.num_vertices()) ==
                   bfs::Direction::kTopDown;
        break;
      case Plan::kAlternate: {
        constexpr bool kPattern[] = {true, true, false, false, true, false};
        top_down = kPattern[step % 6];
        break;
      }
    }
    if (top_down) {
      const bfs::TopDownStats s = bfs::top_down_step(g, state);
      EXPECT_EQ(s.frontier_edges, carried) << what;
    } else {
      const bfs::BottomUpStats s = bfs::bottom_up_step(g, state);
      EXPECT_EQ(s.frontier_edges, carried) << what;
    }
    check::CheckReport report;
    state.check_invariants(g.num_vertices(), report);
    EXPECT_TRUE(report.ok()) << what << " after step " << step << ": "
                             << report.to_string();
    std::vector<vid_t> from_bitmap;
    bfs::bitmap_to_queue(state.frontier_bitmap, from_bitmap);
    std::vector<vid_t> queue = state.frontier_queue;
    std::sort(queue.begin(), queue.end());
    EXPECT_EQ(from_bitmap, queue) << what << " after step " << step;
    ++step;
  }
  BfsResult r = std::move(state).take_result(g);
  EXPECT_EQ(r.edges_in_component, recount_component_edges(g, r)) << what;
  return r;
}

class CarriedCounts : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { omp_set_num_threads(GetParam()); }
};

TEST_P(CarriedCounts, StepLoopsMatchRecountsOnEveryView) {
  const auto rmat = rmat_graph(12, 7);
  const CsrGraphView rview(*rmat);
  const graph::DeltaCsr delta = delta_epoch(rmat);
  const CsrGraph directed = directed_er_graph();
  const CsrGraphView dview(directed);
  graph::GridSpec spec;
  spec.width = 40;
  spec.height = 30;
  spec.wall_density = 0.2;
  const graph::GridWorld grid(spec);

  for (const Plan plan : {Plan::kTopDown, Plan::kBottomUp, Plan::kHybrid,
                          Plan::kAlternate}) {
    const std::string p = std::to_string(static_cast<int>(plan));
    for (const vid_t root : graph::sample_roots(*rmat, 3, 5)) {
      const BfsResult a = step_checked(rview, root, plan, "rmat/" + p);
      const BfsResult b = step_checked(delta, root, plan, "delta/" + p);
      EXPECT_TRUE(bfs::validate_bfs(delta, root, b).ok);
      (void)a;
    }
    (void)step_checked(dview, vid_t{0}, plan, "directed/" + p);
    for (const vid_t root : {vid_t{0}, vid_t{613}, vid_t{1199}}) {
      if (grid.is_wall(root)) continue;
      (void)step_checked(grid, root, plan, "grid/" + p);
    }
  }
}

TEST_P(CarriedCounts, NativeEnginesOnRmat) {
  const auto g = rmat_graph(12, 11);
  Recorder rec;
  bfs::StatePool pool;
  const std::vector<std::pair<std::string, graph500::BfsEngine>> engines = {
      {"td", graph500::make_native_top_down_engine(&rec, &pool)},
      {"bu", graph500::make_native_bottom_up_engine(&rec, &pool)},
      {"hybrid", graph500::make_native_hybrid_engine({}, &rec, &pool)},
  };
  for (const auto& [name, engine] : engines) {
    for (const vid_t root : graph::sample_roots(*g, 4, 3)) {
      const graph500::TimedBfs t = engine(*g, root);
      expect_trace_matches_recount(*g, t.result, rec, "native-" + name);
    }
  }
}

TEST_P(CarriedCounts, ScenarioEnginesOnGrid) {
  const graph::Scenario sc =
      graph::parse_scenario("grid:48x40:wall-density=0.15:wall-seed=3");
  const auto& grid = std::get<graph::GridWorld>(sc.graph);
  Recorder rec;
  bfs::StatePool pool;
  const std::vector<std::pair<std::string, graph500::ScenarioBfsEngine>>
      engines = {
          {"td", graph500::make_scenario_top_down_engine(&rec, &pool)},
          {"bu", graph500::make_scenario_bottom_up_engine(&rec, &pool)},
          {"hybrid", graph500::make_scenario_hybrid_engine({}, &rec, &pool)},
      };
  for (const auto& [name, engine] : engines) {
    for (const vid_t root : {vid_t{0}, vid_t{977}, vid_t{1919}}) {
      if (grid.is_wall(root)) continue;
      const graph500::TimedBfs t = engine(sc.graph, root);
      expect_trace_matches_recount(grid, t.result, rec, "scenario-" + name);
    }
  }
}

TEST_P(CarriedCounts, ViewEnginesOnDeltaEpoch) {
  namespace d = graph500::detail;
  const auto base = rmat_graph(11, 19);
  const graph::DeltaCsr g = delta_epoch(base);
  const core::HybridPolicy policy{};
  Recorder rec;
  bfs::StatePool pool;
  for (const vid_t root : graph::sample_roots(*base, 3, 21)) {
    const graph500::TimedBfs td = d::traced_traversal(
        g, root, "td", &rec, &pool,
        [&g](BfsState& s, obs::LevelEvent* e) { d::step_top_down(g, s, e); });
    expect_trace_matches_recount(g, td.result, rec, "delta-td");
    const graph500::TimedBfs bu = d::traced_traversal(
        g, root, "bu", &rec, &pool,
        [&g](BfsState& s, obs::LevelEvent* e) { d::step_bottom_up(g, s, e); });
    expect_trace_matches_recount(g, bu.result, rec, "delta-bu");
    const graph500::TimedBfs hy = d::traced_traversal(
        g, root, "hybrid", &rec, &pool,
        [&g, &policy](BfsState& s, obs::LevelEvent* e) {
          d::step_hybrid(g, policy, s, e);
        });
    expect_trace_matches_recount(g, hy.result, rec, "delta-hybrid");
  }
}

TEST_P(CarriedCounts, SimulatedAndDistributedDrivers) {
  const auto g = rmat_graph(11, 23);
  const sim::Machine machine = sim::make_paper_node();
  const sim::Device& host = machine.host();
  const sim::Device& accel = machine.accelerator(0);
  Recorder rec;
  for (const vid_t root : graph::sample_roots(*g, 3, 9)) {
    BfsResult r = core::run_combination(*g, root, host, {}, &rec).result;
    expect_trace_matches_recount(*g, r, rec, "sim-hybrid");
    r = core::run_pure(*g, root, accel, bfs::Direction::kBottomUp, &rec)
            .result;
    expect_trace_matches_recount(*g, r, rec, "sim-bu");
    r = core::run_combination_beamer(*g, root, host, {}, &rec).result;
    expect_trace_matches_recount(*g, r, rec, "sim-beamer");
    r = core::run_cross_arch(*g, root, host, accel, machine.link(), {}, {},
                             &rec)
            .result;
    expect_trace_matches_recount(*g, r, rec, "cross-arch");

    for (const core::HybridPolicy policy :
         {core::HybridPolicy{}, core::always_top_down(),
          core::always_bottom_up()}) {
      dist::DistBfsOptions opts;
      opts.policy = policy;
      opts.sink = &rec;
      r = dist::run_dist_bfs(*g, root, sim::make_paper_cluster(3), opts)
              .result;
      expect_trace_matches_recount(*g, r, rec, "dist");
    }
  }
}

TEST_P(CarriedCounts, SerialAndReferenceKeepTheirOwnTotal) {
  const auto g = rmat_graph(12, 29);
  const CsrGraph directed = directed_er_graph();
  graph::GridSpec spec;
  spec.width = 33;
  spec.height = 17;
  spec.wall_density = 0.25;
  const graph::GridWorld grid(spec);
  for (const vid_t root : graph::sample_roots(*g, 4, 13)) {
    const BfsResult s = bfs::run_serial(*g, root);
    EXPECT_EQ(s.edges_in_component, recount_component_edges(*g, s));
    const BfsResult ref = graph500::reference_bfs(*g, root);
    EXPECT_EQ(ref.edges_in_component, recount_component_edges(*g, ref));
  }
  const BfsResult d = bfs::run_serial(directed, vid_t{0});
  EXPECT_EQ(d.edges_in_component, recount_component_edges(directed, d));
  for (vid_t root = 0; root < grid.num_vertices(); root += 97) {
    if (grid.is_wall(root)) continue;
    const BfsResult r = bfs::run_serial(grid, root);
    EXPECT_EQ(r.edges_in_component, recount_component_edges(grid, r));
  }
}

// ---------------------------------------------------------------------
// The top-down step runs levels below kTopDownTeamMinEdges on the
// calling thread and larger ones on the OpenMP team. Both paths must
// produce the same distances, reach and counters.
// ---------------------------------------------------------------------

/// Root 0 with k children; child i shares leaf i and leaf i+1 (mod k)
/// with its neighbours, so team threads race to claim the leaves. Each
/// child has out-degree 3 and `extra` pendant vertices hang off child 1,
/// so level 1's |E|cq is exactly 3k + extra.
CsrGraph caterpillar(eid_t level1_edges) {
  const auto k = static_cast<vid_t>(level1_edges / 3);
  const auto extra = static_cast<vid_t>(level1_edges % 3);
  graph::EdgeList el;
  el.num_vertices = 1 + 2 * k + extra;
  for (vid_t i = 0; i < k; ++i) {
    const vid_t child = 1 + i;
    el.add(0, child);
    el.add(child, 1 + k + i);
    el.add(child, 1 + k + (i + 1) % k);
  }
  for (vid_t j = 0; j < extra; ++j) el.add(1, 1 + 2 * k + j);
  return graph::build_csr(std::move(el));
}

struct StepLog {
  std::vector<bfs::TopDownStats> levels;
  BfsResult result;
};

StepLog run_top_down_logged(const CsrGraph& g, vid_t root) {
  const CsrGraphView view(g);
  StepLog log;
  BfsState state(g.num_vertices(), root);
  while (!state.frontier_empty()) {
    log.levels.push_back(bfs::top_down_step(view, state));
  }
  log.result = std::move(state).take_result(view);
  return log;
}

TEST_P(CarriedCounts, TopDownPathsAgreeAroundTheTeamCutoff) {
  const eid_t cutoff = bfs::kTopDownTeamMinEdges;
  for (const eid_t target : {cutoff - 1, cutoff, cutoff + 1}) {
    const CsrGraph g = caterpillar(target);
    const int threads = GetParam();
    omp_set_num_threads(1);
    const StepLog one = run_top_down_logged(g, 0);
    omp_set_num_threads(threads);
    const StepLog here = run_top_down_logged(g, 0);

    ASSERT_EQ(one.levels.size(), 3u) << target;
    EXPECT_EQ(one.levels[1].frontier_edges, target);
    ASSERT_EQ(here.levels.size(), one.levels.size()) << target;
    for (std::size_t i = 0; i < one.levels.size(); ++i) {
      EXPECT_EQ(here.levels[i].frontier_vertices,
                one.levels[i].frontier_vertices)
          << target << " level " << i;
      EXPECT_EQ(here.levels[i].frontier_edges, one.levels[i].frontier_edges)
          << target << " level " << i;
      EXPECT_EQ(here.levels[i].next_vertices, one.levels[i].next_vertices)
          << target << " level " << i;
    }
    EXPECT_EQ(here.result.level, one.result.level) << target;
    EXPECT_EQ(here.result.reached, one.result.reached) << target;
    EXPECT_EQ(here.result.reached, g.num_vertices()) << target;
    EXPECT_EQ(here.result.edges_in_component,
              recount_component_edges(g, here.result))
        << target;
    EXPECT_TRUE(bfs::validate_bfs(g, 0, here.result).ok) << target;
    // The serial oracle agrees on every distance.
    EXPECT_EQ(bfs::run_serial(g, 0).level, one.result.level) << target;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, CarriedCounts, ::testing::Values(1, 4));

}  // namespace
}  // namespace bfsx
