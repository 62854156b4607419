// Host-throughput benchmark workloads.
//
// Three batch workloads drive the public API (Toolkit::run,
// WorkflowService::run, wf::make_*), each sized so that one layer dominates
// host time:
//
//   fed_scatter       broker      heft-sites Broker over an HPC + cloud pair
//   hpc_wide          cluster RM  one HPC env, a ~2000-deep ready queue
//   service_campaign  service     multi-tenant campaign, journal + telemetry
//
// A rep is set-up (toolkit, environments, broker/service, workflow) followed
// by one run. Inputs come only from the seed, so the simulated outputs of a
// rep are a pure function of (workload, seed, size).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// Full is the benchmark size; Smoke is a small copy of the same shapes for
/// the tests.
enum class Size { Full, Smoke };

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// The seed whose simulated outputs are pinned in perfbench/expected.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Simulated (not host) outputs of one rep. Deterministic in the inputs.
struct SimOutputs {
  double makespan = 0.0;  ///< Simulated seconds.
  std::vector<std::pair<std::string, std::size_t>> env_tasks;  ///< Per environment.
  std::size_t tasks = 0;      ///< Simulated tasks completed.
  std::size_t attempted = 0;  ///< Tasks, or submissions for service_campaign.
  std::size_t failed = 0;     ///< Incomplete tasks, or failed + shed submissions.

  bool operator==(const SimOutputs&) const = default;
};

/// One point of the service sampler (a weak simulation event).
struct ServiceSample {
  double host_s = 0.0;       ///< Host seconds since the run call began.
  std::size_t submissions = 0;
  std::size_t tasks_completed = 0;
  std::size_t active_runs = 0;
  double rss_mb = 0.0;
};

/// A bench-side span: host seconds relative to the start of the rep.
struct BenchSpan {
  std::string name;
  double begin_s = 0.0;
  double end_s = 0.0;
  int parent = -1;  ///< Index of the enclosing span; -1 for the root.
};

/// Everything one rep measured.
struct RepResult {
  SimOutputs out;
  std::vector<std::string> errors;  ///< Failed correctness checks.

  double setup_s = 0.0;     ///< Toolkit, environments, broker/service, workflow.
  double generate_s = 0.0;  ///< The wf::make_* call alone (part of setup).
  double run_s = 0.0;       ///< The run call.
  double rss_mb = 0.0;      ///< Current RSS right after the run call.
  /// Host seconds since the run call began at each window mark (see run_rep).
  std::vector<double> marks;

  // --- traced reps only ---
  double edge_bytes_us = 0.0;  ///< Mean Workflow::edge_bytes call, every edge.
  hhc::obs::MetricsSnapshot metrics;
  std::size_t events_scheduled = 0;
  std::size_t events_cancelled = 0;
  std::size_t queue_peak = 0;
  std::size_t journal_records = 0;
  std::vector<ServiceSample> samples;
  std::vector<BenchSpan> spans;
};

/// Builds the workload's toolkit and inputs, then discards them; returns the
/// set-up seconds.
double setup_only(const std::string& workload, std::uint64_t seed, Size size);

/// Cuts a run into `count` windows of equal simulated length: the host time
/// is marked at span * k / count simulated seconds, k = 1 .. count - 1.
/// `span` is the makespan of an earlier rep of the same inputs.
struct Windows {
  std::size_t count = 0;
  double span = 0.0;
};

/// One set-up + run, with correctness checks. `traced` adds the edge probe,
/// the service sampler, the bench spans and the counters a traced run reads;
/// the caller switches obs::prof on and off around it. `windows` appends the
/// host time at each mark to RepResult::marks; reps of the same inputs and
/// windows mark the same points of the event sequence.
RepResult run_rep(const std::string& workload, std::uint64_t seed, Size size,
                  bool traced, Windows windows = {});

/// Compares a rep's outputs with the values pinned for the default seed
/// (1e-6 relative on the makespan, exact task counts). Appends to `errors`.
void check_expected(const SimOutputs& out, const SimOutputs& expected,
                    std::vector<std::string>& errors);

/// Current resident set size of this process in MiB (/proc/self/statm).
double current_rss_mb();

}  // namespace perfbench
