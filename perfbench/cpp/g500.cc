// Graph 500 kernel-2 workloads: rmat20-g500 (native-hybrid on an R-MAT
// CSR) and grid1k-g500 (the scenario hybrid on the implicit 1024x1024
// grid). Roots run one at a time; each engine call is timed from here,
// and validation happens outside the timed call.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bfs/msbfs.h"
#include "bfs/state_pool.h"
#include "bfs/validate.h"
#include "common.h"
#include "core/hybrid_policy.h"
#include "graph/builder.h"
#include "graph/prng.h"
#include "graph/rmat.h"
#include "graph/scenario.h"
#include "graph500/native_engine.h"
#include "graph500/reference_bfs.h"
#include "graph500/scenario_engine.h"
#include "obs/perf_counters.h"
#include "obs/sink.h"

namespace perfbench {
namespace {

using bfsx::graph::eid_t;
using bfsx::graph::vid_t;

/// Roots checked with the full Graph 500 validator (bfs::validate_bfs)
/// on rmat20; every root's levels are checked against bfs::ms_bfs.
constexpr int kValidatedRoots = 4;
/// Roots per oracle pass; bounds the oracle's memory to this many
/// parent + level maps.
constexpr std::size_t kOracleBatch = 16;
/// Untimed roots run in every set-up repetition, so first-touch page
/// faults of the state and result maps are charged to set-up (paid
/// before the first timed root), not to the first samples.
constexpr int kWarmupRoots = 2;

/// Per-root tally of the engine's level events: the benchmark-owned
/// trace sink attached to the native engines in the traced run.
class LevelTally final : public bfsx::obs::TraceSink {
 public:
  struct Root {
    double td_s = 0;
    double bu_s = 0;
    double levels = 0;
    double bu_levels = 0;
    double td_edges = 0;
    double bu_hit = 0;
    double bu_scanned = 0;
  };

  void on_run_begin(const bfsx::obs::RunEvent&) override { cur_ = {}; }
  void on_level(const bfsx::obs::LevelEvent& e) override {
    if (e.kind != bfsx::obs::LevelEvent::Kind::kLevel) return;
    cur_.levels += 1;
    if (e.direction == bfsx::graph::Direction::kTopDown) {
      cur_.td_s += e.compute_seconds;
      cur_.td_edges += static_cast<double>(e.frontier_edges);
    } else {
      cur_.bu_levels += 1;
      cur_.bu_s += e.compute_seconds;
      cur_.bu_hit += static_cast<double>(e.bu_edges_hit);
      cur_.bu_scanned +=
          static_cast<double>(e.bu_edges_hit + e.bu_edges_miss);
    }
  }
  void on_run_end(const bfsx::obs::RunEvent&) override {
    roots.push_back(cur_);
  }

  std::vector<Root> roots;

 private:
  Root cur_;
};

/// Timed samples of one measured phase.
struct Samples {
  std::vector<double> wall_ms;
  std::vector<double> teps;
};

void record_tally(Record& rec, const Samples& traced, const LevelTally& t) {
  auto column = [&](const char* name, auto field) {
    std::vector<double> v;
    for (const auto& r : t.roots) v.push_back(field(r));
    rec.array(name, v);
  };
  rec.array("trace_wall_ms", traced.wall_ms);
  column("trace_td_ms", [](const LevelTally::Root& r) { return r.td_s * 1e3; });
  column("trace_bu_ms", [](const LevelTally::Root& r) { return r.bu_s * 1e3; });
  column("trace_levels", [](const LevelTally::Root& r) { return r.levels; });
  column("trace_bu_levels",
         [](const LevelTally::Root& r) { return r.bu_levels; });
  column("trace_td_edges",
         [](const LevelTally::Root& r) { return r.td_edges; });
  column("trace_bu_hit", [](const LevelTally::Root& r) { return r.bu_hit; });
  column("trace_bu_scanned",
         [](const LevelTally::Root& r) { return r.bu_scanned; });
}

/// Runs roots from `next_root` through `call` until `seconds` have
/// passed. `call` returns the engine result after timing it; `check`
/// sees each result outside the timed region and returns false for a
/// wrong answer.
template <typename Next, typename Call, typename Check>
Samples measure(double seconds, Next&& next_root, Call&& call, Check&& check,
                Outcome& out) {
  Samples s;
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < deadline) {
    const vid_t root = next_root();
    const auto t0 = Clock::now();
    bfsx::graph500::TimedBfs r = call(root);
    const double wall = seconds_since(t0);
    ++out.attempted;
    s.wall_ms.push_back(wall * 1e3);
    s.teps.push_back(static_cast<double>(r.result.edges_in_component) / wall);
    if (!check(root, r.result)) ++out.failed;
  }
  return s;
}

}  // namespace

int run_rmat_g500(const RunArgs& args, Record& rec) {
  const bfsx::core::HybridPolicy policy{};
  std::vector<double> setup_s;
  std::vector<double> rmat_s;
  std::vector<double> build_s;
  std::optional<bfsx::graph::CsrGraph> g;
  std::optional<bfsx::bfs::StatePool> pool;
  std::optional<bfsx::graph500::BfsEngine> engine;
  LevelTally tally;
  std::optional<bfsx::graph500::BfsEngine> traced_engine;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    engine.reset();
    traced_engine.reset();
    pool.reset();
    g.reset();
    const auto t0 = Clock::now();
    bfsx::graph::RmatParams params;
    params.scale = 20;
    params.edgefactor = 16;
    params.seed = args.seed;
    bfsx::graph::EdgeList el = bfsx::graph::generate_rmat(params);
    const auto t1 = Clock::now();
    g.emplace(bfsx::graph::build_csr(std::move(el)));
    const auto t2 = Clock::now();
    pool.emplace();
    engine = bfsx::graph500::make_native_hybrid_engine(policy, nullptr, &*pool);
    { auto lease = pool->acquire(*g, 0); }
    for (vid_t v = 0, warmed = 0; v < g->num_vertices() && warmed < kWarmupRoots;
         ++v) {
      if (g->out_degree(v) == 0) continue;
      (void)(*engine)(*g, v);
      ++warmed;
    }
    const auto t3 = Clock::now();
    setup_s.push_back(seconds_between(t0, t3));
    rmat_s.push_back(seconds_between(t0, t1));
    build_s.push_back(seconds_between(t1, t2));
  }
  if (args.trace) {
    traced_engine =
        bfsx::graph500::make_native_hybrid_engine(policy, &tally, &*pool);
  }

  // Roots: vertices of the component holding the highest-degree vertex
  // (the giant component). A root in one of R-MAT's few tiny components
  // would time only the engine's fixed cost, and one such root per run
  // drags the harmonic-mean TEPS down by orders of magnitude.
  vid_t hub = 0;
  for (vid_t v = 0; v < g->num_vertices(); ++v) {
    if (g->out_degree(v) > g->out_degree(hub)) hub = v;
  }
  const bfsx::bfs::BfsResult giant = bfsx::graph500::reference_bfs(*g, hub);
  std::vector<vid_t> candidates;
  for (vid_t v = 0; v < g->num_vertices(); ++v) {
    if (giant.level[static_cast<std::size_t>(v)] >= 0) candidates.push_back(v);
  }
  bfsx::graph::Xoshiro256ss rng(args.seed * 7919 + 17);

  std::vector<vid_t> roots;
  std::vector<std::uint64_t> digests;
  std::vector<vid_t> reached;
  std::vector<eid_t> edges;
  Outcome out;
  int validated = 0;
  auto check = [&](vid_t root, const bfsx::bfs::BfsResult& r) {
    roots.push_back(root);
    digests.push_back(level_digest(r.level));
    reached.push_back(r.reached);
    edges.push_back(r.edges_in_component);
    if (validated < kValidatedRoots) {
      ++validated;
      return bfsx::bfs::validate_bfs(*g, root, r).ok;
    }
    return true;
  };
  auto next_root = [&] { return candidates[rng.next_bounded(candidates.size())]; };

  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Samples main = measure(
      untraced_s, next_root,
      [&](vid_t root) { return (*engine)(*g, root); }, check, out);
  Samples traced;
  bfsx::obs::PerfSample perf;
  if (args.trace) {
    bfsx::obs::PerfCounters counters;
    counters.start();
    traced = measure(
        args.seconds - untraced_s, next_root,
        [&](vid_t root) { return (*traced_engine)(*g, root); }, check, out);
    perf = counters.stop();
  }
  const double rss = peak_rss_mb();

  // Oracle: every root's level map, reach and component size against
  // bfs::ms_bfs on the same graph. Parents are never compared — the
  // top-down step picks them first-claimer-wins.
  std::vector<bool> wrong(roots.size(), false);
  for (std::size_t lo = 0; lo < roots.size(); lo += kOracleBatch) {
    const std::size_t hi = std::min(roots.size(), lo + kOracleBatch);
    const std::vector<vid_t> batch(roots.begin() + static_cast<long>(lo),
                                   roots.begin() + static_cast<long>(hi));
    const bfsx::bfs::MsBfsResult ref = bfsx::bfs::ms_bfs(*g, batch);
    for (std::size_t i = lo; i < hi; ++i) {
      const bfsx::bfs::BfsResult& r = ref.per_root[i - lo];
      if (level_digest(r.level) != digests[i] || r.reached != reached[i] ||
          r.edges_in_component != edges[i]) {
        wrong[i] = true;
      }
    }
  }
  out.failed += std::count(wrong.begin(), wrong.end(), true);

  rec.array("setup_s", setup_s);
  rec.array("latency_ms", main.wall_ms);
  rec.array("teps", main.teps);
  rec.num("peak_rss_mb", rss);
  rec.integer("validated_roots", validated);
  record_outcome(rec, out);
  if (args.trace) {
    record_tally(rec, traced, tally);
    // Counters over the traced half, only when they could be read: an
    // unreadable PMU leaves these fields absent rather than zero.
    if (perf.valid) {
      rec.num("perf_cycles", static_cast<double>(perf.cycles));
      rec.num("perf_instructions", static_cast<double>(perf.instructions));
      rec.num("perf_cache_misses", static_cast<double>(perf.cache_misses));
      rec.num("perf_branch_misses", static_cast<double>(perf.branch_misses));
    }
    const auto& offs = g->out_offsets();
    const auto& tgts = g->out_targets();
    const double csr_bytes =
        static_cast<double>(offs.size() * sizeof(offs[0]) +
                            tgts.size() * sizeof(tgts[0]));
    rec.object("layers", {{"graph.rmat_s", median_of(rmat_s)},
                          {"graph.build_csr_s", median_of(build_s)},
                          {"graph.csr_mb", csr_bytes / (1024.0 * 1024.0)}});
  }
  return 0;
}

int run_grid_g500(const RunArgs& args, Record& rec) {
  const bfsx::core::HybridPolicy policy{};
  constexpr vid_t spec_side = 1024;
  const std::string spec = "grid:1024x1024";
  std::vector<double> setup_s;
  std::optional<bfsx::graph::Scenario> sc;
  std::optional<bfsx::bfs::StatePool> pool;
  std::optional<bfsx::graph500::ScenarioBfsEngine> engine;
  LevelTally tally;
  std::optional<bfsx::graph500::ScenarioBfsEngine> traced_engine;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    engine.reset();
    pool.reset();
    sc.reset();
    const auto t0 = Clock::now();
    sc.emplace(bfsx::graph::parse_scenario(spec));
    pool.emplace();
    engine = bfsx::graph500::make_scenario_hybrid_engine(policy, nullptr,
                                                         &*pool);
    const auto& world = std::get<bfsx::graph::GridWorld>(sc->graph);
    { auto lease = pool->acquire(world.num_vertices(), 0); }
    // Fixed warm-up roots: the centre and a corner.
    (void)(*engine)(sc->graph, world.id_of(spec_side / 2, spec_side / 2));
    (void)(*engine)(sc->graph, world.id_of(0, 0));
    setup_s.push_back(seconds_since(t0));
  }
  if (args.trace) {
    traced_engine =
        bfsx::graph500::make_scenario_hybrid_engine(policy, &tally, &*pool);
  }
  const auto& grid = std::get<bfsx::graph::GridWorld>(sc->graph);
  const vid_t n = grid.num_vertices();
  const eid_t grid_edges = grid.num_edges() / 2;

  // Roots follow the R2 low-discrepancy sequence from a seeded offset:
  // every run's roots cover the grid evenly, so runs differ in where
  // the roots fall but hardly in how far their BFS must reach (root
  // eccentricity ranges from 1024 to 2046 levels).
  bfsx::graph::Xoshiro256ss rng(args.seed * 7919 + 29);
  constexpr double kPlastic = 1.32471795724474602596;
  double px = rng.next_double();
  double py = rng.next_double();
  auto next_root = [&] {
    px += 1.0 / kPlastic;
    py += 1.0 / (kPlastic * kPlastic);
    px -= std::floor(px);
    py -= std::floor(py);
    return grid.id_of(static_cast<vid_t>(px * spec_side),
                      static_cast<vid_t>(py * spec_side));
  };

  // Oracle: on an open 4-connected grid the BFS level of every cell is
  // its Manhattan distance from the root.
  auto check = [&](vid_t root, const bfsx::bfs::BfsResult& r) {
    if (r.reached != n || r.edges_in_component != grid_edges) return false;
    const auto [rx, ry] = grid.coords_of(root);
    for (vid_t v = 0; v < n; ++v) {
      const auto [x, y] = grid.coords_of(v);
      if (r.level[static_cast<std::size_t>(v)] !=
          std::abs(x - rx) + std::abs(y - ry)) {
        return false;
      }
    }
    return true;
  };

  Outcome out;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  Samples main = measure(
      untraced_s, next_root,
      [&](vid_t root) { return (*engine)(sc->graph, root); }, check, out);
  Samples traced;
  if (args.trace) {
    traced = measure(
        args.seconds - untraced_s, next_root,
        [&](vid_t root) { return (*traced_engine)(sc->graph, root); }, check,
        out);
  }
  rec.array("setup_s", setup_s);
  rec.array("latency_ms", main.wall_ms);
  rec.array("teps", main.teps);
  rec.num("peak_rss_mb", peak_rss_mb());
  record_outcome(rec, out);
  if (args.trace) {
    record_tally(rec, traced, tally);
    rec.object("layers", {{"graph.rmat_s", 0.0},
                          {"graph.build_csr_s", 0.0},
                          {"graph.csr_mb", 0.0}});
  }
  return 0;
}

}  // namespace perfbench
