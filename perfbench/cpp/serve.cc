// Serve workloads: serve::QueryEngine on an R-MAT scale-18 graph.
//
// serve-rmat18-read  a read-only, hot-skewed bfs/dist/reach stream.
// serve-rmat18-churn the same stream plus a writer thread on its own
//                    schedule: inserts every publish, removals every
//                    third, so both landmark re-arm paths (in-place
//                    repair after insert-only batches, rebuild after
//                    removals) compete with reads.
//
// Each run has two phases on one engine. Saturation keeps a window of
// queries outstanding, so admission never refuses and the workers never
// idle; it measures answered queries per second. Then an open loop at a
// fixed rate below saturation measures latency from each query's due
// time, and records how late the generator submitted it.
//
// Every answer is checked after the run against oracle_levels() on the
// graph of the epoch the answer reports; that graph is rebuilt here
// from the generated edges and the writer's log, not by the graph layer.

#include <algorithm>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <optional>
#include <stop_token>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bfs/msbfs.h"
#include "common.h"
#include "graph/builder.h"
#include "graph/graph_stats.h"
#include "graph/prng.h"
#include "graph/rmat.h"
#include "obs/registry.h"
#include "obs/sink.h"
#include "oracle.h"
#include "serve/engine.h"

namespace perfbench {
namespace {

using bfsx::graph::eid_t;
using bfsx::graph::vid_t;
using bfsx::serve::Query;
using bfsx::serve::QueryKind;
using bfsx::serve::QueryResult;

constexpr int kScale = 18;
constexpr int kWorkers = 2;
/// Open-loop offered rate (queries/s), below saturation on both serve
/// workloads; BENCHMARK.json's workload notes repeat it.
constexpr double kOfferedRate = 25.0;
/// Share of a run spent in the saturation phase; the rest is open loop.
constexpr double kSaturationShare = 0.4;
/// Saturation window: queries kept outstanding. Below the queue bound,
/// so saturation never triggers a refusal.
constexpr std::size_t kWindow = 512;
constexpr std::size_t kQueueCapacity = 4096;
/// Query mix. Sources are hot (the top-kHotSet degree vertices) with
/// kHotFraction, else uniform over vertices with an edge. The cache
/// covers the top-16 hubs, so about kHotFraction * 16/kHotSet of the
/// dist/reach queries are cache hits — ~10%, keeping the median and
/// the tail inside the traversal mode.
constexpr int kHotSet = 64;
constexpr double kHotFraction = 0.4;
constexpr double kBfsFraction = 0.05;
constexpr double kReachFraction = 0.25;
/// Writer schedule (churn): one publish per period; kInserts each, and
/// kRemoves more on every kRemoveEvery-th publish.
constexpr double kWriterPeriodS = 0.25;
constexpr int kInserts = 64;
constexpr int kRemoves = 32;
constexpr int kRemoveEvery = 3;

std::uint64_t pair_key(vid_t u, vid_t v) {
  const auto a = static_cast<std::uint64_t>(std::min(u, v));
  const auto b = static_cast<std::uint64_t>(std::max(u, v));
  return (a << 32) | b;
}
vid_t key_lo(std::uint64_t k) { return static_cast<vid_t>(k >> 32); }
vid_t key_hi(std::uint64_t k) { return static_cast<vid_t>(k & 0xffffffffu); }

/// The undirected edge set of a graph as sorted pair keys — the
/// oracle's own model of each epoch.
std::vector<std::uint64_t> edge_keys(const bfsx::graph::EdgeList& el) {
  std::vector<std::uint64_t> keys;
  keys.reserve(el.edges.size());
  for (const auto& e : el.edges) {
    if (e.src != e.dst) keys.push_back(pair_key(e.src, e.dst));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// A symmetric CSR over `n` vertices from sorted pair keys. Filling in
/// key order leaves every row sorted (lower neighbours arrive first).
bfsx::graph::CsrGraph keys_to_csr(vid_t n,
                                  const std::vector<std::uint64_t>& keys) {
  const auto nu = static_cast<std::size_t>(n);
  bfsx::graph::EidArray offsets(nu + 1, 0);
  for (const std::uint64_t k : keys) {
    ++offsets[static_cast<std::size_t>(key_lo(k)) + 1];
    ++offsets[static_cast<std::size_t>(key_hi(k)) + 1];
  }
  for (std::size_t v = 0; v < nu; ++v) offsets[v + 1] += offsets[v];
  bfsx::graph::VidArray targets(static_cast<std::size_t>(offsets[nu]));
  std::vector<eid_t> fill(offsets.begin(), offsets.end() - 1);
  for (const std::uint64_t k : keys) {
    const vid_t a = key_lo(k);
    const vid_t b = key_hi(k);
    targets[static_cast<std::size_t>(fill[static_cast<std::size_t>(a)]++)] = b;
    targets[static_cast<std::size_t>(fill[static_cast<std::size_t>(b)]++)] = a;
  }
  return bfsx::graph::CsrGraph(std::move(offsets), std::move(targets));
}

class QueryGen {
 public:
  QueryGen(std::uint64_t seed, std::vector<vid_t> hot,
           std::vector<vid_t> active, vid_t n)
      : rng_(seed), hot_(std::move(hot)), active_(std::move(active)), n_(n) {}

  Query next() {
    Query q;
    const double kind = rng_.next_double();
    q.kind = kind < kBfsFraction                     ? QueryKind::kBfs
             : kind < kBfsFraction + kReachFraction ? QueryKind::kReachability
                                                     : QueryKind::kDistance;
    q.source = rng_.next_double() < kHotFraction
                   ? hot_[rng_.next_bounded(hot_.size())]
                   : active_[rng_.next_bounded(active_.size())];
    q.target = static_cast<vid_t>(
        rng_.next_bounded(static_cast<std::uint64_t>(n_)));
    return q;
  }

  [[nodiscard]] const std::vector<vid_t>& hot() const { return hot_; }

 private:
  bfsx::graph::Xoshiro256ss rng_;
  std::vector<vid_t> hot_;
  std::vector<vid_t> active_;
  vid_t n_;
};

/// One served answer, reduced to what the oracle compares.
struct Answer {
  QueryKind kind = QueryKind::kDistance;
  vid_t source = 0;
  vid_t target = 0;
  std::uint64_t epoch = 0;
  std::int32_t distance = -1;
  bool reachable = false;
  std::uint64_t digest = 0;
};

/// One publish of the writer: the ops it buffered and what it cost.
struct Publish {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> inserts;
  std::vector<std::uint64_t> removes;
  double wall_s = 0;        // publish_inserts() as the caller sees it
  double graph_s = 0;       // epochs().last_publish().seconds
  double patched_fraction = 0;
  bool compacted = false;
  double relaxed = 0;
  double lowered = 0;
  double live_epochs = 0;
};

/// Counts the engine's query-stage events: the benchmark-owned trace
/// sink attached in the traced half. The engine serialises on_query.
class StageTally final : public bfsx::obs::TraceSink {
 public:
  void on_query(const bfsx::obs::QueryEvent&) override { ++events; }
  std::int64_t events = 0;
};

struct Phases {
  std::int64_t sat_answered = 0;
  double sat_seconds = 0;
  // Open loop, per answered query: due and submit time since the phase
  // start, and the engine's submit-to-answer latency.
  std::vector<double> due_s;
  std::vector<double> submit_s;
  std::vector<double> service_s;
  std::vector<Answer> answers;
  std::vector<Publish> publishes;
  std::int64_t attempted = 0;
  std::int64_t rejected = 0;
  bfsx::serve::ServeStats before;
  bfsx::serve::ServeStats after;
};

struct InFlight {
  std::future<QueryResult> future;
  Clock::time_point due;
  Clock::time_point submitted;
};

/// Reduces a result to an Answer; false when it was refused. Open-loop
/// queries (`open` set) also record their due and submit times,
/// relative to the phase start, and the engine's service latency.
bool harvest(InFlight& f, Phases& ph, const Clock::time_point* open) {
  QueryResult r = f.future.get();
  if (!r.ok) {
    ++ph.rejected;
    return false;
  }
  Answer a;
  a.kind = r.kind;
  a.source = r.source;
  a.target = r.target;
  a.epoch = r.epoch;
  a.distance = r.distance;
  a.reachable = r.reachable;
  if (r.kind == QueryKind::kBfs && r.traversal != nullptr) {
    a.digest = level_digest(r.traversal->level);
  }
  ph.answers.push_back(a);
  if (open != nullptr) {
    ph.due_s.push_back(seconds_between(*open, f.due));
    ph.submit_s.push_back(seconds_between(*open, f.submitted));
    ph.service_s.push_back(r.latency_seconds);
  }
  return true;
}

/// The writer's whole schedule, drawn before the run from the seed:
/// distinct pairs within a batch, inserts between random vertices,
/// removals of edges the base graph has.
std::vector<Publish> writer_schedule(std::uint64_t seed, vid_t n,
                                     const std::vector<std::uint64_t>& base,
                                     int batches) {
  bfsx::graph::Xoshiro256ss rng(seed * 104729 + 3);
  std::vector<Publish> plan(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    std::unordered_set<std::uint64_t> used;
    Publish& p = plan[static_cast<std::size_t>(b)];
    while (static_cast<int>(p.inserts.size()) < kInserts) {
      const auto u = static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<vid_t>(rng.next_bounded(static_cast<std::uint64_t>(n)));
      if (u == v || !used.insert(pair_key(u, v)).second) continue;
      p.inserts.push_back(pair_key(u, v));
    }
    if (b % kRemoveEvery == kRemoveEvery - 1) {
      while (static_cast<int>(p.removes.size()) < kRemoves) {
        const std::uint64_t k = base[rng.next_bounded(base.size())];
        if (!used.insert(k).second) continue;
        p.removes.push_back(k);
      }
    }
  }
  return plan;
}

/// The churn writer: one publish per kWriterPeriodS until `stop`,
/// recording what each publish cost. Publishes only from this thread.
void run_writer(bfsx::serve::QueryEngine& engine, std::vector<Publish>& plan,
                const std::stop_token& stop, std::vector<Publish>& done) {
  auto tick = Clock::now();
  for (Publish& p : plan) {
    tick += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kWriterPeriodS));
    std::this_thread::sleep_until(tick);
    if (stop.stop_requested()) break;
    for (const std::uint64_t k : p.inserts) {
      engine.insert_edge(key_lo(k), key_hi(k));
    }
    for (const std::uint64_t k : p.removes) {
      engine.remove_edge(key_lo(k), key_hi(k));
    }
    const auto t0 = Clock::now();
    p.epoch = engine.publish_inserts();
    p.wall_s = seconds_since(t0);
    const bfsx::serve::PublishInfo info = engine.epochs().last_publish();
    p.graph_s = info.seconds;
    p.patched_fraction = info.patched_fraction;
    p.compacted = info.compacted;
    if (p.removes.empty()) {
      const bfsx::serve::RepairStats rs = engine.last_repair();
      p.relaxed = static_cast<double>(rs.relaxed);
      p.lowered = static_cast<double>(rs.lowered);
    }
    p.live_epochs = static_cast<double>(engine.epochs().live_epochs());
    done.push_back(std::move(p));
  }
}

Phases run_phases(bfsx::serve::QueryEngine& engine, QueryGen& gen,
                  double seconds, bool churn, std::vector<Publish> plan) {
  Phases ph;
  ph.before = engine.stats();

  std::vector<Publish> done;
  std::exception_ptr writer_error;
  // Declared after everything the writer uses: on any exit, including
  // an exception, its destructor asks it to stop and joins it first.
  std::jthread writer;
  if (churn) {
    writer = std::jthread([&](const std::stop_token& stop) {
      try {
        run_writer(engine, plan, stop, done);
      } catch (...) {
        writer_error = std::current_exception();
      }
    });
  }
  // Saturation: keep kWindow queries outstanding until the phase ends,
  // then drain; throughput counts every answer over first submit to
  // last answer.
  std::deque<InFlight> inflight;
  const auto sat_start = Clock::now();
  const auto sat_end =
      sat_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds * kSaturationShare));
  std::int64_t answered = 0;
  while (Clock::now() < sat_end) {
    while (inflight.size() < kWindow) {
      InFlight f;
      f.future = engine.submit(gen.next());
      ++ph.attempted;
      inflight.push_back(std::move(f));
    }
    if (harvest(inflight.front(), ph, nullptr)) ++answered;
    inflight.pop_front();
  }
  while (!inflight.empty()) {
    if (harvest(inflight.front(), ph, nullptr)) ++answered;
    inflight.pop_front();
  }
  ph.sat_seconds = seconds_since(sat_start);
  ph.sat_answered = answered;

  // Open loop: query i is due at start + i / rate, whatever happened to
  // earlier ones. Ready answers are collected between submissions.
  const double open_s = seconds * (1.0 - kSaturationShare);
  const auto count = static_cast<std::int64_t>(open_s * kOfferedRate);
  const auto open_start = Clock::now();
  for (std::int64_t i = 0; i < count; ++i) {
    const auto due = open_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          static_cast<double>(i) / kOfferedRate));
    while (!inflight.empty() &&
           inflight.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      harvest(inflight.front(), ph, &open_start);
      inflight.pop_front();
    }
    std::this_thread::sleep_until(due);
    InFlight f;
    f.due = due;
    Query q = gen.next();
    f.submitted = Clock::now();
    f.future = engine.submit(std::move(q));
    ++ph.attempted;
    inflight.push_back(std::move(f));
  }
  while (!inflight.empty()) {
    harvest(inflight.front(), ph, &open_start);
    inflight.pop_front();
  }

  if (writer.joinable()) {
    writer.request_stop();
    writer.join();
  }
  if (writer_error) std::rethrow_exception(writer_error);
  ph.publishes = std::move(done);
  ph.after = engine.stats();
  return ph;
}

/// Checks every answer against oracle_levels on the graph of its
/// epoch. Returns the number of wrong answers.
std::int64_t verify(const Phases& ph, vid_t n,
                    std::vector<std::uint64_t> keys) {
  std::map<std::uint64_t, std::vector<const Answer*>> by_epoch;
  for (const Answer& a : ph.answers) by_epoch[a.epoch].push_back(&a);
  std::int64_t wrong = 0;
  std::size_t next_publish = 0;
  for (const auto& [epoch, answers] : by_epoch) {
    // Roll the edge model forward to `epoch`.
    while (next_publish < ph.publishes.size() &&
           ph.publishes[next_publish].epoch <= epoch) {
      const Publish& p = ph.publishes[next_publish++];
      std::vector<std::uint64_t> rem = p.removes;
      std::vector<std::uint64_t> ins = p.inserts;
      std::sort(rem.begin(), rem.end());
      std::sort(ins.begin(), ins.end());
      std::vector<std::uint64_t> kept;
      kept.reserve(keys.size() + ins.size());
      std::set_difference(keys.begin(), keys.end(), rem.begin(), rem.end(),
                          std::back_inserter(kept));
      keys.clear();
      std::set_union(kept.begin(), kept.end(), ins.begin(), ins.end(),
                     std::back_inserter(keys));
    }
    const bool known = epoch == 0 || (next_publish > 0 &&
                                      ph.publishes[next_publish - 1].epoch == epoch);
    if (!known) {  // an epoch the writer never published
      wrong += static_cast<std::int64_t>(answers.size());
      continue;
    }
    const bfsx::graph::CsrGraph g = keys_to_csr(n, keys);
    std::vector<vid_t> sources;
    for (const Answer* a : answers) sources.push_back(a->source);
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
    for (std::size_t lo = 0; lo < sources.size(); lo += 64) {
      const std::size_t hi = std::min(sources.size(), lo + 64);
      const std::span<const vid_t> batch(sources.data() + lo, hi - lo);
      const auto levels = oracle_levels(g, batch);
      for (const Answer* a : answers) {
        const auto it = std::lower_bound(batch.begin(), batch.end(), a->source);
        if (it == batch.end() || *it != a->source) continue;
        const auto& lv = levels[static_cast<std::size_t>(it - batch.begin())];
        const std::int32_t d = lv[static_cast<std::size_t>(a->target)];
        bool ok = true;
        switch (a->kind) {
          case QueryKind::kBfs: ok = a->digest == level_digest(lv); break;
          case QueryKind::kDistance: ok = a->distance == d; break;
          case QueryKind::kReachability: ok = a->reachable == (d >= 0); break;
        }
        if (!ok) ++wrong;
      }
    }
  }
  return wrong;
}

/// Wall time of one 64-lane bfs::ms_bfs pass over `epoch`, with the
/// serve workers' team size.
double msbfs_pass_ms(const bfsx::serve::EpochGraph& epoch,
                     const std::vector<vid_t>& roots, const RunArgs& args) {
  set_team(args.team);
  const auto t0 = Clock::now();
  const auto r = epoch.visit(
      [&](const auto& view) { return bfsx::bfs::ms_bfs(view, roots); });
  const double ms = seconds_since(t0) * 1e3;
  set_team(args.threads);
  return r.depth > 0 ? ms : 0.0;
}

}  // namespace

int run_serve(const RunArgs& args, bool churn, Record& rec) {
  bfsx::serve::ServeOptions opts;
  opts.workers = kWorkers;
  opts.queue_capacity = kQueueCapacity;

  std::vector<double> setup_s;
  std::vector<double> rmat_s;
  std::vector<double> build_s;
  std::optional<bfsx::graph::CsrGraph> g;
  std::optional<bfsx::serve::QueryEngine> engine;
  std::vector<std::uint64_t> keys;
  bfsx::graph::EdgeList edges;
  for (int rep = 0; rep < args.setup_reps; ++rep) {
    engine.reset();
    g.reset();
    const auto t0 = Clock::now();
    // The graph is fixed (RmatParams' default seed); --seed drives the
    // query stream and the writer. Queueing amplifies differences in
    // graph depth, so a per-seed graph would dominate the spread.
    bfsx::graph::RmatParams params;
    params.scale = kScale;
    bfsx::graph::EdgeList el = bfsx::graph::generate_rmat(params);
    const auto t1 = Clock::now();
    // Copies for the oracle and the engine, outside the timed set-up.
    edges = el;
    bfsx::graph::EdgeList for_engine = el;
    const auto t2 = Clock::now();
    g.emplace(bfsx::graph::build_csr(std::move(el)));
    const auto t3 = Clock::now();
    engine.emplace(std::move(for_engine), opts);
    const auto t4 = Clock::now();
    setup_s.push_back(seconds_between(t0, t1) + seconds_between(t2, t4));
    rmat_s.push_back(seconds_between(t0, t1));
    build_s.push_back(seconds_between(t2, t3));
  }
  const vid_t n = g->num_vertices();
  keys = edge_keys(edges);

  std::vector<vid_t> active;
  for (vid_t v = 0; v < n; ++v) {
    if (g->out_degree(v) > 0) active.push_back(v);
  }
  QueryGen gen(args.seed * 6151 + 11,
               bfsx::graph::top_out_degree_vertices(*g, kHotSet), active, n);
  // The writer runs until the phases end, which takes longer than
  // `seconds` (the saturation drain); plan twice as many publishes.
  const int plan_len = static_cast<int>(2 * args.seconds / kWriterPeriodS) + 2;

  // Traced runs split the time: an untraced half, then a half on a
  // second engine carrying the benchmark's trace sink, so the p50 gap
  // between them is the tracing overhead.
  const double main_s = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<vid_t> pass_roots;
  {
    QueryGen roots_gen(args.seed * 6151 + 12, gen.hot(), active, n);
    for (int i = 0; i < bfsx::bfs::kMsBfsMaxLanes; ++i) {
      pass_roots.push_back(roots_gen.next().source);
    }
  }
  double pass_ms = 0;
  if (args.trace) {
    auto pin = engine->epochs().pin();
    pass_ms = msbfs_pass_ms(pin.graph(), pass_roots, args);
  }
  Phases main = run_phases(*engine, gen, main_s, churn,
                           churn ? writer_schedule(args.seed, n, keys, plan_len)
                                 : std::vector<Publish>{});
  const double rss = peak_rss_mb();
  Outcome out;
  out.attempted = main.attempted;
  out.failed = main.rejected + verify(main, n, keys);

  rec.array("setup_s", setup_s);
  rec.integer("sat_answered", main.sat_answered);
  rec.num("sat_seconds", main.sat_seconds);
  rec.array("due_s", main.due_s);
  rec.array("submit_s", main.submit_s);
  rec.array("service_s", main.service_s);
  rec.num("offered_rate", kOfferedRate);
  rec.integer("workers", kWorkers);
  rec.integer("writer_threads", churn ? 1 : 0);
  rec.num("peak_rss_mb", rss);

  if (args.trace) {
    engine.reset();
    StageTally tally;
    opts.sink = &tally;
    engine.emplace(edges, opts);
    Phases traced = run_phases(
        *engine, gen, args.seconds - main_s, churn,
        churn ? writer_schedule(args.seed + 1, n, keys, plan_len)
              : std::vector<Publish>{});
    out.attempted += traced.attempted;
    out.failed += traced.rejected + verify(traced, n, keys);

    double delta_pass_ms = 0;
    {
      auto pin = engine->epochs().pin();
      if (pin.graph().is_delta()) {
        delta_pass_ms = msbfs_pass_ms(pin.graph(), pass_roots, args);
      }
    }
    const auto& s0 = traced.before;
    const auto& s1 = traced.after;
    auto d = [](std::int64_t a, std::int64_t b) {
      return static_cast<double>(b - a);
    };
    const double hits = d(s0.cache_hits, s1.cache_hits);
    const double misses = d(s0.cache_misses, s1.cache_misses);
    const double batched = d(s0.batched_queries, s1.batched_queries);
    const double single = d(s0.single_queries, s1.single_queries);
    const double dispatches = d(s0.dispatches, s1.dispatches);
    std::vector<double> pub_ms;
    std::vector<double> graph_ms;
    std::vector<double> rearm_ms;
    double relaxed = 0;
    double lowered = 0;
    double patched_max = 0;
    double compactions = 0;
    double live_max = 0;
    for (const Publish& p : traced.publishes) {
      pub_ms.push_back(p.wall_s * 1e3);
      graph_ms.push_back(p.graph_s * 1e3);
      rearm_ms.push_back((p.wall_s - p.graph_s) * 1e3);
      // Reconciliation: the graph publish runs inside publish_inserts,
      // so publish = graph publish + re-arm with re-arm >= 0.
      if (p.graph_s > p.wall_s + 1e-6) out.consistent = false;
      relaxed += p.relaxed;
      lowered += p.lowered;
      patched_max = std::max(patched_max, p.patched_fraction);
      compactions += p.compacted ? 1 : 0;
      live_max = std::max(live_max, p.live_epochs);
    }
    rec.array("trace_due_s", traced.due_s);
    rec.array("trace_submit_s", traced.submit_s);
    rec.array("trace_service_s", traced.service_s);
    rec.integer("trace_events", tally.events);
    rec.object(
        "layers",
        {{"graph.rmat_s", median_of(rmat_s)},
         {"graph.build_csr_s", median_of(build_s)},
         {"graph.csr_mb",
          static_cast<double>(g->out_offsets().size() * sizeof(eid_t) +
                              g->out_targets().size() * sizeof(vid_t)) /
              (1024.0 * 1024.0)},
         {"bfs.msbfs_pass_ms", pass_ms},
         {"bfs.msbfs_pass_delta_ms", delta_pass_ms},
         {"serve.cache_hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0},
         {"serve.batch_mean",
          dispatches > 0 ? (batched + single) / dispatches : 0.0},
         {"serve.single_share",
          batched + single > 0 ? single / (batched + single) : 0.0},
         {"serve.dispatches", dispatches},
         {"serve.rejected", d(s0.rejected_full, s1.rejected_full) +
                                d(s0.rejected_invalid, s1.rejected_invalid) +
                                d(s0.rejected_shutdown, s1.rejected_shutdown)},
         {"serve.publish_ms_p50", median_of(pub_ms)},
         {"serve.publish_ms_max",
          pub_ms.empty() ? 0.0 : *std::max_element(pub_ms.begin(), pub_ms.end())},
         {"serve.graph_publish_ms_p50", median_of(graph_ms)},
         {"serve.cache_rearm_ms_p50", median_of(rearm_ms)},
         {"serve.cache_repairs", d(s0.cache_repairs, s1.cache_repairs)},
         {"serve.cache_rebuilds", d(s0.cache_rebuilds, s1.cache_rebuilds)},
         {"serve.repair_lowered_per_relaxed",
          relaxed > 0 ? lowered / relaxed : 0.0},
         {"serve.patched_fraction_max", patched_max},
         {"serve.compactions", compactions},
         {"serve.live_epochs_max", live_max}});
    bfsx::obs::Registry snapshot;
    engine->export_metrics(snapshot);
    std::vector<std::pair<std::string, double>> counters;
    for (const auto& [name, value] : snapshot.counters()) {
      counters.emplace_back(name, static_cast<double>(value));
    }
    rec.object("export_metrics", counters);
  }
  record_outcome(rec, out);
  return 0;
}

}  // namespace perfbench
