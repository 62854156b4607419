// Host-throughput benchmark driver (see perfbench/README.md).
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expected FILE] [--trace-out FILE] [--source-digest HEX]
//
// --trace 0 runs a warm-up rep, then repeats set-up + run reps of one
// workload for --seconds and prints the end-to-end metrics (fastest windows
// and set-ups over the reps, see metrics.hpp). --trace 1 runs a traced
// rep between two untraced reps of the same inputs and prints the per-layer
// metrics. Every rep is checked; the last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "obs/prof/prof.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace prof = hhc::obs::prof;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;
  std::string trace_out;
  std::string source_digest;
};

// The first rep of a run is a warm-up: it is checked but not timed, and its
// makespan is the span every measured rep is cut into kWindows windows of.
constexpr std::size_t kWindows = 1000;

// After every measured rep, set-up alone is timed again until
// kSetupBatchSeconds have passed, so the set-up samples are spread over the
// run instead of bunched at one moment of it; at least kMinSetups in all.
constexpr double kSetupBatchSeconds = 0.02;
constexpr std::size_t kMinSetups = 20;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--expected FILE] "
               "[--trace-out FILE] [--source-digest HEX]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--expected") a.expected = v;
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--source-digest") a.source_digest = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty();
}

/// Pinned outputs for the default seed, when the file names this workload.
bool load_expected(const std::string& path, const std::string& workload,
                   SimOutputs& out) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const hhc::Json doc = hhc::Json::parse(buf.str());
  const hhc::Json* w = doc.at("workloads").find(workload);
  if (!w) return false;
  out = outputs_from_json(*w);
  return true;
}

void report_errors(const std::string& where, const std::vector<std::string>& errors) {
  for (const std::string& e : errors)
    std::fprintf(stderr, "hostbench: %s: %s\n", where.c_str(), e.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    if (!parse(argc, argv, a)) return usage("bad arguments");
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  bool known = false;
  for (const std::string& n : workload_names()) known = known || n == a.workload;
  if (!known) return usage(("unknown workload '" + a.workload + "'").c_str());

  try {
    const hhc::Json prov = provenance(a.source_digest);
    {
      hhc::Json line = hhc::Json::object();
      line.set("provenance", prov);
      std::cout << line.dump() << "\n";
    }

    std::vector<std::string> errors;
    std::vector<RepResult> reps;
    std::vector<Metric> metrics;
    std::size_t attempted = 0, failed = 0;
    prof::set_enabled(false);

    if (!a.trace) {
      // The warm-up and the measured reps share --seconds of host time: a
      // rep starts only while one more as long as the last ends in time.
      const double t0 = now_s();
      reps.push_back(run_rep(a.workload, a.seed, Size::Full, /*traced=*/false));
      const Windows windows{kWindows, reps.front().out.makespan};
      std::vector<double> setups;
      double last_s = 0.0;
      do {
        const double rep0 = now_s();
        reps.push_back(
            run_rep(a.workload, a.seed, Size::Full, /*traced=*/false, windows));
        setups.push_back(reps.back().setup_s);
        const double batch0 = now_s();
        do {
          setups.push_back(setup_only(a.workload, a.seed, Size::Full));
        } while (now_s() - batch0 < kSetupBatchSeconds);
        last_s = now_s() - rep0;
      } while (now_s() - t0 + last_s <= a.seconds);
      while (setups.size() < kMinSetups)
        setups.push_back(setup_only(a.workload, a.seed, Size::Full));
      const std::vector<RepResult> measured(reps.begin() + 1, reps.end());
      metrics = end_to_end(measured, setups);
    } else {
      // Untraced reps before and after the traced one, so the first rep's
      // cold start does not land on one side of trace_overhead only.
      reps.push_back(run_rep(a.workload, a.seed, Size::Full, /*traced=*/false));
      prof::reset();
      prof::set_enabled(true);
      RepResult traced = run_rep(a.workload, a.seed, Size::Full, /*traced=*/true);
      prof::set_enabled(false);
      const prof::ProfileReport rep = prof::report();
      reps.push_back(run_rep(a.workload, a.seed, Size::Full, /*traced=*/false));
      const double untraced_s = 0.5 * (reps[0].run_s + reps[1].run_s);
      metrics = per_layer(traced, rep, prof::compiled(), untraced_s);
      if (!a.trace_out.empty()) {
        std::ofstream out(a.trace_out);
        out << trace_json(traced, rep, metrics, prov).dump_pretty() << "\n";
        if (!out) errors.push_back("cannot write " + a.trace_out);
      }
      reps.push_back(std::move(traced));
    }

    // Every rep of one process ran the same inputs: the simulated outputs
    // must agree (for --trace 1 this is the tracing-is-inert check).
    for (std::size_t i = 0; i < reps.size(); ++i) {
      report_errors("rep " + std::to_string(i), reps[i].errors);
      errors.insert(errors.end(), reps[i].errors.begin(), reps[i].errors.end());
      if (!(reps[i].out == reps.front().out))
        errors.push_back("rep " + std::to_string(i) +
                         " simulated outputs differ from rep 0");
      attempted += reps[i].out.attempted;
      failed += reps[i].out.failed;
    }
    if (!a.expected.empty() && a.seed == kDefaultSeed) {
      SimOutputs expected;
      std::vector<std::string> mismatch;
      if (load_expected(a.expected, a.workload, expected))
        check_expected(reps.front().out, expected, mismatch);
      else
        mismatch.push_back("no pinned outputs for this workload in " + a.expected);
      report_errors("expected", mismatch);
      errors.insert(errors.end(), mismatch.begin(), mismatch.end());
    }

    {
      hhc::Json line = hhc::Json::object();
      hhc::Json per_rep = hhc::Json::array();
      for (const RepResult& r : reps) {
        hhc::Json x = hhc::Json::object();
        x.set("setup_s", r.setup_s);
        x.set("run_s", r.run_s);
        x.set("rss_mb", r.rss_mb);
        per_rep.push_back(std::move(x));
      }
      line.set("outputs", outputs_json(reps.front().out));
      line.set("reps", std::move(per_rep));
      std::cout << line.dump() << "\n";
    }
    std::cout << result_json(errors.empty(), attempted, failed, metrics).dump()
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
}
