#include "metrics.hpp"

#include <unistd.h>

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#ifndef HHC_BUILD_COMMIT
#define HHC_BUILD_COMMIT "unknown"
#endif
#ifndef HHC_BUILD_TYPE
#define HHC_BUILD_TYPE "unknown"
#endif
#ifndef HHC_BUILD_COMPILER
#define HHC_BUILD_COMPILER "unknown"
#endif

namespace perfbench {

using hhc::Json;
namespace prof = hhc::obs::prof;

namespace {

struct Def {
  const char* name;
  const char* unit;
};

constexpr Def kEndToEnd[] = {
    {"tasks_per_s", "1/s"}, {"setup_s", "s"}, {"rss_mb", "MiB"}};

// Per-layer metrics, grouped by module. `prof` marks those read from the
// profiler's regions or tallies (missing when it is compiled out).
struct LayerDef {
  const char* name;
  const char* unit;
  bool prof;
};

constexpr LayerDef kPerLayer[] = {
    {"workflow.generate_s", "s", false},
    {"workflow.edge_bytes_us", "us", false},
    {"cluster.sched_passes_per_task", "1/task", false},
    {"cluster.sched_pass_us_mean", "us", false},
    {"cluster.sched_share", "ratio", false},
    {"cluster.jobs_placed_per_pass", "jobs/pass", false},
    {"fabric.transfers_per_task", "1/task", false},
    {"fabric.cache_hits_per_transfer", "ratio", false},
    {"fabric.self_share", "ratio", true},
    {"sim.events_scheduled_per_task", "1/task", false},
    {"sim.events_cancelled_per_task", "1/task", false},
    {"sim.queue_peak", "count", false},
    {"sim.unattributed_share", "ratio", true},
    {"federation.place_us", "us", true},
    {"federation.place_share", "ratio", true},
    {"toolkit.dispatch_us", "us", true},
    {"toolkit.stage_inputs_us", "us", true},
    {"toolkit.submit_attempt_us", "us", true},
    {"toolkit.on_attempt_complete_us", "us", true},
    {"toolkit.self_share", "ratio", true},
    {"service.rss_slope_mb_per_ksub", "MiB/ksub", false},
    {"service.slowdown_ratio", "ratio", false},
    {"service.journal_records_per_sub", "1/sub", false},
    {"obs.metric_records_per_task", "1/task", true},
    {"obs.span_records_per_task", "1/task", true},
    {"forensics.ledger_appends_per_task", "1/task", true},
    {"trace_overhead", "ratio", false},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Sum of a counter family over every label.
double counter_sum(const hhc::obs::MetricsSnapshot& m, const std::string& name) {
  double s = 0.0;
  for (const hhc::obs::MetricEntry& c : m.counters)
    if (c.name == name) s += c.value;
  return s;
}

/// Host seconds (since the run call began) at which `target` tasks had
/// completed, interpolated between samples.
double host_at(const std::vector<ServiceSample>& s, double target) {
  double prev_t = 0.0, prev_n = 0.0;
  for (const ServiceSample& x : s) {
    const double n = static_cast<double>(x.tasks_completed);
    if (n >= target) {
      if (n <= prev_n) return x.host_s;
      return prev_t + (x.host_s - prev_t) * (target - prev_n) / (n - prev_n);
    }
    prev_t = x.host_s;
    prev_n = n;
  }
  return s.empty() ? 0.0 : s.back().host_s;
}

/// Host cost per completed task in the last decile over the first decile.
double slowdown_ratio(const std::vector<ServiceSample>& s) {
  if (s.size() < 3) return 0.0;
  const double total = static_cast<double>(s.back().tasks_completed);
  if (total < 10.0) return 0.0;
  const double first = host_at(s, 0.1 * total);
  const double last = s.back().host_s - host_at(s, 0.9 * total);
  return ratio(last, first);
}

/// Least-squares slope of RSS (MiB) against submissions (thousands).
double rss_slope(const std::vector<ServiceSample>& s) {
  if (s.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(s.size());
  for (const ServiceSample& x : s) {
    const double k = static_cast<double>(x.submissions) / 1000.0;
    sx += k;
    sy += x.rss_mb;
    sxx += k * k;
    sxy += k * x.rss_mb;
  }
  return ratio(n * sxy - sx * sy, n * sxx - sx * sx);
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Def& d : kEndToEnd) n.emplace_back(d.name);
    return n;
  }();
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const LayerDef& d : kPerLayer) n.emplace_back(d.name);
    return n;
  }();
  return names;
}

double best_run_s(const std::vector<RepResult>& reps) {
  if (reps.empty()) return 0.0;
  const std::size_t n = reps.front().marks.size();
  std::vector<double> best(n + 1, std::numeric_limits<double>::infinity());
  for (const RepResult& r : reps) {
    if (r.marks.size() != n)
      throw std::runtime_error("reps of the same inputs marked " +
                               std::to_string(n) + " and " +
                               std::to_string(r.marks.size()) + " windows");
    double begin = 0.0;
    for (std::size_t k = 0; k <= n; ++k) {
      const double end = k < n ? r.marks[k] : r.run_s;
      best[k] = std::min(best[k], end - begin);
      begin = end;
    }
  }
  double sum = 0.0;
  for (double b : best) sum += b;
  return sum;
}

std::vector<Metric> end_to_end(const std::vector<RepResult>& reps,
                               const std::vector<double>& setups) {
  std::vector<double> rss;
  for (const RepResult& r : reps) rss.push_back(r.rss_mb);
  const double tasks = reps.empty() ? 0.0 : static_cast<double>(reps.front().out.tasks);
  const double fastest_setup =
      setups.empty() ? 0.0 : *std::min_element(setups.begin(), setups.end());
  const double values[] = {ratio(tasks, best_run_s(reps)), fastest_setup,
                           median(rss)};
  std::vector<Metric> out;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
    out.push_back({kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
  return out;
}

std::vector<Metric> per_layer(const RepResult& t,
                              const prof::ProfileReport& prof_report,
                              bool prof_compiled, double untraced_run_s) {
  const double tasks = static_cast<double>(t.out.tasks);
  const double wall_ns = t.run_s * 1e9;
  const hhc::obs::MetricsSnapshot& m = t.metrics;

  std::map<std::string, prof::FlatRegion> regions;
  for (prof::FlatRegion& r : prof_report.flat()) regions[r.name] = r;
  auto self_ns = [&](const std::string& name) {
    const auto it = regions.find(name);
    return it == regions.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  auto self_us_per_call = [&](const std::string& name) {
    const auto it = regions.find(name);
    if (it == regions.end() || it->second.calls == 0) return 0.0;
    return static_cast<double>(it->second.self_ns) / 1e3 /
           static_cast<double>(it->second.calls);
  };
  auto tally = [&](const std::string& name) {
    const prof::CounterValue* c = prof_report.find_counter(name);
    return c ? static_cast<double>(c->value) : 0.0;
  };

  double passes = 0.0, pass_us = 0.0;
  for (const hhc::obs::HistogramEntry& h : m.histograms)
    if (h.name == "rm.sched_pass_us") {
      passes += static_cast<double>(h.total);
      pass_us += h.sum;
    }
  double toolkit_self = 0.0;
  for (const auto& [name, r] : regions)
    if (name.rfind("toolkit.", 0) == 0) toolkit_self += static_cast<double>(r.self_ns);
  const double transfers = counter_sum(m, "fabric.transfers");
  const std::size_t subs = t.samples.empty() ? 0 : t.samples.back().submissions;

  const std::map<std::string, double> v = {
      {"workflow.generate_s", t.generate_s},
      {"workflow.edge_bytes_us", t.edge_bytes_us},
      {"cluster.sched_passes_per_task", ratio(passes, tasks)},
      {"cluster.sched_pass_us_mean", ratio(pass_us, passes)},
      {"cluster.sched_share", ratio(pass_us * 1e3, wall_ns)},
      {"cluster.jobs_placed_per_pass",
       ratio(counter_sum(m, "rm.sched_jobs_placed"), passes)},
      {"fabric.transfers_per_task", ratio(transfers, tasks)},
      {"fabric.cache_hits_per_transfer",
       ratio(counter_sum(m, "fabric.cache_hits"), transfers)},
      {"fabric.self_share",
       ratio(self_ns("fabric.stage") + self_ns("fabric.complete_flight"), wall_ns)},
      {"sim.events_scheduled_per_task",
       ratio(static_cast<double>(t.events_scheduled), tasks)},
      {"sim.events_cancelled_per_task",
       ratio(static_cast<double>(t.events_cancelled), tasks)},
      {"sim.queue_peak", static_cast<double>(t.queue_peak)},
      // The sampled dispatch scope is a slice of sim.run's own loop.
      {"sim.unattributed_share",
       ratio(self_ns("sim.run") + self_ns("sim.dispatch.sampled"), wall_ns)},
      {"federation.place_us", self_us_per_call("federation.place")},
      {"federation.place_share", ratio(self_ns("federation.place"), wall_ns)},
      {"toolkit.dispatch_us", self_us_per_call("toolkit.dispatch")},
      {"toolkit.stage_inputs_us", self_us_per_call("toolkit.stage_inputs")},
      {"toolkit.submit_attempt_us", self_us_per_call("toolkit.submit_attempt")},
      {"toolkit.on_attempt_complete_us",
       self_us_per_call("toolkit.on_attempt_complete")},
      {"toolkit.self_share", ratio(toolkit_self, wall_ns)},
      {"service.rss_slope_mb_per_ksub", rss_slope(t.samples)},
      {"service.slowdown_ratio", slowdown_ratio(t.samples)},
      {"service.journal_records_per_sub",
       ratio(static_cast<double>(t.journal_records), static_cast<double>(subs))},
      {"obs.metric_records_per_task", ratio(tally("obs.metric_records"), tasks)},
      {"obs.span_records_per_task", ratio(tally("obs.span_records"), tasks)},
      {"forensics.ledger_appends_per_task",
       ratio(tally("forensics.ledger_appends"), tasks)},
      {"trace_overhead", ratio(t.run_s, untraced_run_s) - 1.0},
  };
  std::vector<Metric> out;
  for (const LayerDef& d : kPerLayer)
    if (prof_compiled || !d.prof) out.push_back({d.name, v.at(d.name), d.unit});
  return out;
}

Json provenance(const std::string& source_digest) {
  Json p = Json::object();
  p.set("commit", HHC_BUILD_COMMIT);
  p.set("source_sha256", source_digest.empty() ? "unknown" : source_digest);
  p.set("build_type", HHC_BUILD_TYPE);
  p.set("compiler", HHC_BUILD_COMPILER);
  p.set("profiler_compiled", prof::compiled());
  p.set("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  return p;
}

namespace {
Json metrics_json(const std::vector<Metric>& metrics) {
  Json ms = Json::object();
  for (const Metric& m : metrics) {
    Json e = Json::object();
    e.set("value", m.value);
    e.set("unit", m.unit);
    ms.set(m.name, std::move(e));
  }
  return ms;
}
}  // namespace

Json result_json(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  Json r = Json::object();
  r.set("correct", correct);
  r.set("attempted", static_cast<double>(attempted));
  r.set("failed", static_cast<double>(failed));
  r.set("metrics", metrics_json(metrics));
  return r;
}

Json outputs_json(const SimOutputs& out) {
  Json envs = Json::object();
  for (const auto& [name, n] : out.env_tasks) envs.set(name, static_cast<double>(n));
  Json j = Json::object();
  j.set("makespan", out.makespan);
  j.set("env_tasks", std::move(envs));
  j.set("tasks", static_cast<double>(out.tasks));
  j.set("attempted", static_cast<double>(out.attempted));
  j.set("failed", static_cast<double>(out.failed));
  return j;
}

SimOutputs outputs_from_json(const Json& j) {
  SimOutputs out;
  out.makespan = j.at("makespan").as_number();
  for (const auto& [name, n] : j.at("env_tasks").as_object())
    out.env_tasks.emplace_back(name, static_cast<std::size_t>(n.as_int()));
  return out;
}

Json trace_json(const RepResult& t, const prof::ProfileReport& prof_report,
                const std::vector<Metric>& metrics, const Json& prov) {
  Json events = Json::array();
  for (const BenchSpan& s : t.spans) {
    Json e = Json::object();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("pid", 1.0);
    e.set("tid", 1.0);
    e.set("ts", s.begin_s * 1e6);
    e.set("dur", (s.end_s - s.begin_s) * 1e6);
    if (s.parent >= 0) {
      Json args = Json::object();
      args.set("parent", t.spans[static_cast<std::size_t>(s.parent)].name);
      e.set("args", std::move(args));
    }
    events.push_back(std::move(e));
  }
  Json flat = Json::array();
  for (const prof::FlatRegion& r : prof_report.flat()) {
    Json e = Json::object();
    e.set("name", r.name);
    e.set("calls", static_cast<double>(r.calls));
    e.set("total_ns", static_cast<double>(r.total_ns));
    e.set("self_ns", static_cast<double>(r.self_ns));
    flat.push_back(std::move(e));
  }
  Json tallies = Json::object();
  for (const prof::CounterValue& c : prof_report.counters)
    tallies.set(c.name, static_cast<double>(c.value));
  Json samples = Json::array();
  for (const ServiceSample& s : t.samples) {
    Json e = Json::object();
    e.set("host_s", s.host_s);
    e.set("submissions", static_cast<double>(s.submissions));
    e.set("tasks_completed", static_cast<double>(s.tasks_completed));
    e.set("active_runs", static_cast<double>(s.active_runs));
    e.set("rss_mb", s.rss_mb);
    samples.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("provenance", prov);
  doc.set("traceEvents", std::move(events));
  doc.set("prof_flat", std::move(flat));
  doc.set("prof_counters", std::move(tallies));
  doc.set("service_samples", std::move(samples));
  doc.set("per_layer", metrics_json(metrics));
  return doc;
}

}  // namespace perfbench
