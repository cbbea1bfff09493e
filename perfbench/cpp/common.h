// Shared plumbing of the perfbench binary: run arguments, clocks, the
// raw-sample JSON record every workload prints, and host facts.
//
// The binary measures; perfbench/run.py turns the raw samples into the
// metrics (percentiles, harmonic means, shares). Keeping the arithmetic
// in one tested place means the C++ side only has to time calls and
// check answers.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Set-up repetitions whose median is reported as setup_s.
  int setup_reps = 3;
  /// OpenMP team of the main thread (set-up, Graph 500 roots, oracles).
  int threads = 1;
  /// OpenMP team of each serve worker. OpenMP sizes the teams of new
  /// threads from OMP_NUM_THREADS, so run.py sets that to this value.
  int team = 1;
};

/// Sets the calling thread's OpenMP team size.
void set_team(int threads);

/// Median of `v`; 0 for no samples (a layer the run never exercised).
double median_of(std::vector<double> v);

/// Process peak resident set size so far, in MiB.
double peak_rss_mb();

/// Order-sensitive 64-bit digest of a level map, so answers can be
/// compared with the oracle without keeping every map alive.
std::uint64_t level_digest(std::span<const std::int32_t> levels);

/// Flat JSON object writer for the raw record: numbers keep every
/// digit, arrays of samples are written in full.
class Record {
 public:
  void num(const std::string& key, double value);
  void integer(const std::string& key, std::int64_t value);
  void flag(const std::string& key, bool value);
  void text(const std::string& key, const std::string& value);
  void array(const std::string& key, std::span<const double> values);
  /// Nested object with numeric members (per-layer values).
  void object(const std::string& key,
              const std::vector<std::pair<std::string, double>>& members);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Host metadata every run records: nproc, NUMA nodes, compiler, build
/// type, OpenMP team cap, and whether perf counters can be read.
void record_host(const RunArgs& args, Record& rec);

/// Outcome counts shared by all workloads: every timed operation is an
/// attempt; a wrong or refused answer is a failure.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when a check outside the operations themselves failed: a
  /// publish whose parts do not add up to its wall time.
  bool consistent = true;
};

void record_outcome(Record& rec, const Outcome& out);

int run_rmat_g500(const RunArgs& args, Record& rec);
int run_grid_g500(const RunArgs& args, Record& rec);
int run_serve(const RunArgs& args, bool churn, Record& rec);

}  // namespace perfbench
