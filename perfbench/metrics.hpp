// Metric assembly for the host-throughput benchmark: end-to-end figures from
// untraced reps, per-layer figures from one traced rep, build provenance, and
// the JSON lines the benchmark prints.
#pragma once

#include <string>
#include <vector>

#include "obs/prof/prof.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Names of the end-to-end metrics, in BENCHMARK.json order.
const std::vector<std::string>& end_to_end_names();

/// Names of the per-layer metrics, in BENCHMARK.json order.
const std::vector<std::string>& per_layer_names();

/// Run-call seconds of one rep with host contention filtered out. The reps
/// ran the same inputs with the same window marks, so window k did the same
/// work in every rep: returns the sum over windows of the fastest time any
/// rep took for it. Throws if the reps marked different numbers of windows.
double best_run_s(const std::vector<RepResult>& reps);

/// tasks_per_s (tasks of one rep / best_run_s), setup_s (the fastest of
/// `setups`) and rss_mb (median over the reps), from untraced reps of the
/// same inputs.
std::vector<Metric> end_to_end(const std::vector<RepResult>& reps,
                               const std::vector<double>& setups);

/// Per-layer metrics of one traced rep. `prof` is the profiler report of that
/// rep; `untraced_run_s` the run-call seconds of an untraced rep of the same
/// inputs (for trace_overhead). When the profiler is compiled out, metrics
/// read from its regions or tallies are left out instead of reported as 0.
std::vector<Metric> per_layer(const RepResult& traced,
                              const hhc::obs::prof::ProfileReport& prof,
                              bool prof_compiled, double untraced_run_s);

/// Commit, build type, compiler, profiler compiled in, nproc, and the digest
/// of the source tree the build came from.
hhc::Json provenance(const std::string& source_digest);

/// The result object: {"correct", "attempted", "failed", "metrics"}.
hhc::Json result_json(bool correct, std::size_t attempted, std::size_t failed,
                      const std::vector<Metric>& metrics);

/// A rep's simulated outputs as JSON, and back (perfbench/expected.json).
hhc::Json outputs_json(const SimOutputs& out);
SimOutputs outputs_from_json(const hhc::Json& j);

/// The traced run's record: provenance, bench spans as Chrome trace events,
/// the profiler's flat report and tallies, the service samples and the
/// per-layer metrics.
hhc::Json trace_json(const RepResult& traced,
                     const hhc::obs::prof::ProfileReport& prof,
                     const std::vector<Metric>& metrics,
                     const hhc::Json& provenance);

double median(std::vector<double> v);

}  // namespace perfbench
