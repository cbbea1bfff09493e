// perfbench binary: runs one workload in this process and prints one
// JSON line of raw samples for perfbench/run.py.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --threads N --team T [--setup-reps K]
//
// Exit status 0 when the workload ran (answers may still be wrong —
// that is reported in the record), 2 on bad arguments, 1 when the
// workload threw.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "graph/numa.h"
#include "obs/perf_counters.h"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void set_team(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t level_digest(std::span<const std::int32_t> levels) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const std::int32_t l : levels) {
    h ^= static_cast<std::uint32_t>(l);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

void Record::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += quote(k) + ":";
}

void Record::num(const std::string& k, double value) {
  key(k);
  body_ += format_number(value);
}

void Record::integer(const std::string& k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void Record::flag(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
}

void Record::text(const std::string& k, const std::string& value) {
  key(k);
  body_ += quote(value);
}

void Record::array(const std::string& k, std::span<const double> values) {
  key(k);
  body_ += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ",";
    body_ += format_number(values[i]);
  }
  body_ += "]";
}

void Record::object(const std::string& k,
                    const std::vector<std::pair<std::string, double>>& members) {
  key(k);
  body_ += "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) body_ += ",";
    body_ += quote(members[i].first) + ":" + format_number(members[i].second);
  }
  body_ += "}";
}

void record_host(const RunArgs& args, Record& rec) {
  rec.integer("host_nproc", std::thread::hardware_concurrency());
  rec.integer("host_threads", args.threads);
  rec.integer("host_team", args.team);
  rec.integer("host_numa_nodes", bfsx::graph::numa::num_nodes());
  rec.text("host_compiler", __VERSION__);
  rec.text("host_build_type", PERFBENCH_BUILD_TYPE);
  const bfsx::obs::PerfCounters counters;
  rec.flag("host_perf_counters", counters.available());
}

void record_outcome(Record& rec, const Outcome& out) {
  rec.integer("attempted", out.attempted);
  rec.integer("failed", out.failed);
  rec.flag("consistent", out.consistent);
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --threads N --team T "
               "[--setup-reps K]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value");
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--threads") {
        args.threads = std::stoi(value);
      } else if (flag == "--team") {
        args.team = std::stoi(value);
      } else if (flag == "--setup-reps") {
        args.setup_reps = std::stoi(value);
      } else {
        return usage("unknown flag");
      }
    }
  } catch (const std::exception&) {
    return usage("malformed value");
  }
  if (args.seconds <= 0.0 || args.setup_reps < 1 || args.threads < 1 ||
      args.team < 1) {
    return usage("--seconds, --setup-reps, --threads, --team must be positive");
  }
  perfbench::set_team(args.threads);

  perfbench::Record rec;
  rec.text("workload", args.workload);
  rec.integer("seed", static_cast<std::int64_t>(args.seed));
  rec.flag("trace", args.trace);
  perfbench::record_host(args, rec);
  int status = 0;
  try {
    if (args.workload == "rmat20-g500") {
      status = perfbench::run_rmat_g500(args, rec);
    } else if (args.workload == "grid1k-g500") {
      status = perfbench::run_grid_g500(args, rec);
    } else if (args.workload == "serve-rmat18-read") {
      status = perfbench::run_serve(args, /*churn=*/false, rec);
    } else if (args.workload == "serve-rmat18-churn") {
      status = perfbench::run_serve(args, /*churn=*/true, rec);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", rec.str().c_str());
  return status;
}
