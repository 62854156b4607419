#include "workloads.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "core/toolkit.hpp"
#include "federation/broker.hpp"
#include "obs/forensics/critical_path.hpp"
#include "service/service.hpp"
#include "workflow/analysis.hpp"
#include "workflow/generators.hpp"

namespace perfbench {

using namespace hhc;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- workload shapes ------------------------------------------------------

struct ScatterShape {
  std::size_t stages = 0;
  std::size_t width = 0;
};

// make_scatter_gather(stages, width) has stages * (width + 1) tasks. The
// width sets the per-task cost of the loaded layer (queue depth, concurrent
// flows); the stage count only sets how long a rep runs.
ScatterShape fed_scatter_shape(Size s) {
  return s == Size::Full ? ScatterShape{99, 100} : ScatterShape{6, 20};
}
ScatterShape hpc_wide_shape(Size s) {
  return s == Size::Full ? ScatterShape{4, 2000} : ScatterShape{3, 200};
}

struct CampaignShape {
  std::size_t heavy_submissions = 0;
  std::size_t light_submissions = 0;
};
CampaignShape campaign_shape(Size s) {
  return s == Size::Full ? CampaignShape{800, 800} : CampaignShape{40, 40};
}

// Offered load of the campaign: arrivals per simulated second per tenant.
// Together they keep the two sites ~80% busy, so queues stay finite.
constexpr double kHeavyRate = 1.0 / 18.0;
constexpr double kLightRate = 1.0 / 18.0;

cluster::ClusterSpec hpc_16x32() {
  return cluster::homogeneous_cluster(16, 32, gib(128));
}

// --- set-up ---------------------------------------------------------------

/// A workload's toolkit and inputs, ready to run.
struct Prepared {
  std::unique_ptr<core::Toolkit> toolkit;
  std::unique_ptr<federation::Broker> broker;
  std::unique_ptr<wf::Workflow> workflow;
  core::EnvironmentId env = 0;                  ///< hpc_wide only.
  std::unique_ptr<service::WorkflowService> service;
  double capacity_cores = 0.0;
  double generate_s = 0.0;
  double generate_begin = 0.0;  ///< Host clock when generation began.
  double expected_campaign_s = 0.0;  ///< service_campaign: simulated span.
};

void generate(Prepared& p, const ScatterShape& shape, std::uint64_t seed,
              const wf::GenParams& params = {}) {
  p.generate_begin = now_s();
  p.workflow = std::make_unique<wf::Workflow>(
      wf::make_scatter_gather(shape.stages, shape.width, Rng(seed), params));
  p.generate_s = now_s() - p.generate_begin;
}

service::TenantConfig tenant(const char* name, std::vector<std::string> shapes,
                             std::size_t scale, double runtime, Bytes data,
                             double rate, std::size_t submissions) {
  service::TenantConfig t;
  t.name = name;
  t.workload.shapes = std::move(shapes);
  t.workload.scale = scale;
  t.workload.params.runtime_mean = runtime;
  t.workload.params.data_mean = data;
  t.arrivals.rate = rate;
  t.max_submissions = submissions;
  return t;
}

Prepared prepare(const std::string& workload, std::uint64_t seed, Size size) {
  Prepared p;
  p.toolkit = std::make_unique<core::Toolkit>();
  core::Toolkit& tk = *p.toolkit;
  if (workload == "fed_scatter") {
    const auto hpc = tk.add_hpc("hpc", hpc_16x32(), "fifo-fit");
    const auto cloud = tk.add_cloud("cloud", 32, 8, gib(32));
    federation::BrokerConfig bc;
    bc.policy = "heft-sites";
    p.broker = std::make_unique<federation::Broker>(bc);
    p.broker->add_site(tk.describe_environment(hpc));
    p.broker->add_site(tk.describe_environment(cloud));
    p.capacity_cores = 16 * 32 + 32 * 8;
    wf::GenParams gp;
    gp.data_mean = mib(64);
    generate(p, fed_scatter_shape(size), seed, gp);
  } else if (workload == "hpc_wide") {
    p.env = tk.add_hpc("hpc", hpc_16x32(), "fifo-fit");
    p.capacity_cores = 16 * 32;
    generate(p, hpc_wide_shape(size), seed);
  } else if (workload == "service_campaign") {
    const auto alpha =
        tk.add_hpc("alpha", cluster::homogeneous_cluster(4, 32, gib(128)));
    const auto beta =
        tk.add_hpc("beta", cluster::homogeneous_cluster(4, 32, gib(128)));
    federation::BrokerConfig bc;
    bc.policy = "heft-sites";
    p.broker = std::make_unique<federation::Broker>(bc);
    p.broker->add_site(tk.describe_environment(alpha));
    p.broker->add_site(tk.describe_environment(beta));
    p.capacity_cores = 2 * 4 * 32;
    const CampaignShape shape = campaign_shape(size);
    service::ServiceConfig cfg;
    cfg.seed = seed;
    cfg.horizon = 1e12;  // max_submissions ends each stream
    cfg.policy = "fair-share";
    cfg.run_slots = 32;
    cfg.durability.journal = true;
    cfg.durability.checkpoints = resilience::CheckpointPolicy::every_completions(8);
    cfg.telemetry.enabled = true;
    cfg.tenants.push_back(tenant("heavy", {"chain", "fork-join", "layered", "montage"},
                                 6, 120.0, mib(8), kHeavyRate,
                                 shape.heavy_submissions));
    cfg.tenants.push_back(tenant("light", {"chain", "fork-join"}, 3, 60.0,
                                 mib(4), kLightRate, shape.light_submissions));
    p.expected_campaign_s =
        static_cast<double>(shape.heavy_submissions) / kHeavyRate;
    p.service = std::make_unique<service::WorkflowService>(tk, *p.broker,
                                                           std::move(cfg));
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return p;
}

/// Returns freed heap to the OS so each rep's RSS reflects its own state.
void release_heap() { malloc_trim(0); }

// --- correctness ----------------------------------------------------------

void require(std::vector<std::string>& errors, bool ok, std::string what) {
  if (!ok) errors.push_back(std::move(what));
}

/// Checks a single synchronous run: every task completed exactly once, the
/// makespan respects the DAG and capacity lower bounds, and the forensics
/// blame closes.
void check_single_run(const Prepared& p, const core::CompositeReport& r,
                      std::vector<std::string>& errors) {
  const wf::Workflow& w = *p.workflow;
  require(errors, r.success, "run failed: " + r.error);

  std::vector<std::size_t> wins(w.task_count(), 0);
  const obs::forensics::TaskLedger& ledger = p.toolkit->ledger();
  for (std::size_t a = 0; a < ledger.size(); ++a) {
    const auto& rec = ledger.attempt(a);
    if (rec.winner && rec.outcome == obs::forensics::AttemptOutcome::Completed &&
        rec.task < wins.size())
      ++wins[rec.task];
  }
  const std::size_t once = static_cast<std::size_t>(
      std::count(wins.begin(), wins.end(), std::size_t{1}));
  require(errors, once == w.task_count(),
          std::to_string(w.task_count() - once) +
              " tasks did not complete exactly once");
  std::size_t ran = 0;
  for (const core::EnvironmentReport& e : r.environments) ran += e.tasks_run;
  require(errors, ran == w.task_count(),
          "environments ran " + std::to_string(ran) + " tasks, workflow has " +
              std::to_string(w.task_count()));

  const double bound = std::max(wf::critical_path(w).length,
                                wf::total_work(w) / p.capacity_cores);
  require(errors, r.makespan >= bound * (1.0 - 1e-9),
          "makespan " + std::to_string(r.makespan) + " below lower bound " +
              std::to_string(bound));

  const double closure =
      obs::forensics::critical_path(ledger).closure_error();
  require(errors, closure < 1e-6,
          "blame closure error " + std::to_string(closure));
}

/// Checks a service campaign: per-tenant conservation, every completed
/// submission no faster than its ideal bound, and every task of every
/// completed submission run exactly once across the sites.
void check_campaign(const service::WorkflowService& svc,
                    const service::ServiceReport& rep,
                    const obs::MetricsSnapshot& metrics,
                    std::vector<std::string>& errors) {
  for (const service::TenantReport& t : rep.tenants)
    require(errors, t.completed + t.failed + t.shed == t.submitted,
            "tenant " + t.tenant + ": completed + failed + shed != submitted");
  std::size_t tasks = 0, too_fast = 0;
  for (const service::Submission& sub : svc.submissions()) {
    if (sub.state != service::Submission::State::Completed) continue;
    tasks += sub.workflow.task_count();
    if (sub.finished - sub.launched < sub.ideal * (1.0 - 1e-9)) ++too_fast;
  }
  require(errors, too_fast == 0,
          std::to_string(too_fast) + " submissions beat their ideal makespan");
  double jobs = 0.0;
  for (const obs::MetricEntry& c : metrics.counters)
    if (c.name == "rm.jobs_completed") jobs += c.value;
  require(errors, static_cast<std::size_t>(jobs) == tasks,
          "sites completed " + std::to_string(jobs) + " jobs for " +
              std::to_string(tasks) + " tasks of completed submissions");
}

std::size_t completed_tasks(const service::WorkflowService& svc) {
  std::size_t n = 0;
  for (const service::Submission& sub : svc.submissions())
    if (sub.state == service::Submission::State::Completed)
      n += sub.workflow.task_count();
  return n;
}

// --- bench-side spans -----------------------------------------------------

class SpanLog {
 public:
  SpanLog(bool on, double origin) : on_(on), origin_(origin) {}
  int open(std::string name, int parent) {
    if (!on_) return -1;
    const double t = now_s() - origin_;
    spans_.push_back({std::move(name), t, t, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Records an already-finished interval given in absolute host seconds.
  void add(std::string name, double begin, double end, int parent) {
    if (on_) spans_.push_back({std::move(name), begin - origin_, end - origin_, parent});
  }
  void close(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_s = now_s() - origin_;
  }
  std::vector<BenchSpan> take() { return std::move(spans_); }

 private:
  bool on_;
  double origin_;
  std::vector<BenchSpan> spans_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fed_scatter", "hpc_wide", "service_campaign"};
  return names;
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0.0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double setup_only(const std::string& workload, std::uint64_t seed, Size size) {
  const double t0 = now_s();
  double setup_s = 0.0;
  {
    Prepared p = prepare(workload, seed, size);
    setup_s = now_s() - t0;
  }
  release_heap();
  return setup_s;
}

RepResult run_rep(const std::string& workload, std::uint64_t seed, Size size,
                  bool traced, Windows windows) {
  RepResult res;
  const double origin = now_s();
  SpanLog spans(traced, origin);
  const int rep_span = spans.open("rep:" + workload, -1);
  {
    const int setup_span = spans.open("setup", rep_span);
    Prepared p = prepare(workload, seed, size);
    spans.close(setup_span);
    res.setup_s = now_s() - origin;
    res.generate_s = p.generate_s;
    if (p.workflow)
      spans.add("generate", p.generate_begin, p.generate_begin + p.generate_s,
                setup_span);
    core::Toolkit& tk = *p.toolkit;
    sim::Simulation& sim = tk.simulation();

    if (traced && p.workflow) {
      const int probe_span = spans.open("edge_probe", rep_span);
      const wf::Workflow& w = *p.workflow;
      Bytes sum = 0;
      const double t0 = now_s();
      for (const wf::Edge& e : w.edges()) sum += w.edge_bytes(e.from, e.to);
      const double dt = now_s() - t0;
      spans.close(probe_span);
      if (!w.edges().empty())
        res.edge_bytes_us = dt * 1e6 / static_cast<double>(w.edges().size());
      if (sum == 0 && !w.edges().empty())
        res.errors.push_back("edge probe read zero bytes");
    }

    const int run_span = spans.open("run", rep_span);
    const double t_run = now_s();
    // The marks are weak events that only read the host clock. Weak events
    // still fire while cancelled events are queued, so they are kept inside
    // the span: past the last real event they would move the clock on.
    std::size_t next_mark = 1;
    std::function<void()> mark = [&] {
      res.marks.push_back(now_s() - t_run);
      if (++next_mark < windows.count)
        sim.schedule_weak_at(windows.span * static_cast<double>(next_mark) /
                                 static_cast<double>(windows.count),
                             [&mark] { mark(); });
    };
    if (windows.count > 1)
      sim.schedule_weak_at(windows.span / static_cast<double>(windows.count),
                           [&mark] { mark(); });
    if (p.service) {
      service::WorkflowService& svc = *p.service;
      // The sampler's events are weak: they never extend the simulation and
      // only read state, so the campaign's schedule is the same with or
      // without them. run() drains every queued weak event before returning.
      const double period = std::max(1.0, p.expected_campaign_s / 400.0);
      auto sample = [&] {
        res.samples.push_back({now_s() - t_run, svc.submissions().size(),
                               completed_tasks(svc), tk.active_run_count(),
                               current_rss_mb()});
        spans.close(spans.open("sample", run_span));
      };
      std::function<void()> tick;
      if (traced) {
        tick = [&] {
          sample();
          sim.schedule_weak_in(period, [&tick] { tick(); });
        };
        sim.schedule_weak_in(period, [&tick] { tick(); });
      }
      const service::ServiceReport rep = svc.run();
      res.run_s = now_s() - t_run;
      res.rss_mb = current_rss_mb();
      spans.close(run_span);
      res.out.makespan = rep.makespan;
      res.out.tasks = completed_tasks(svc);
      res.out.attempted = rep.submitted;
      res.out.failed = rep.failed + rep.shed;
      const obs::MetricsSnapshot metrics = tk.observer().metrics().snapshot();
      for (core::EnvironmentId e = 0; e < tk.environment_count(); ++e) {
        const obs::MetricEntry* c =
            metrics.find_counter("rm.jobs_completed", tk.environment_name(e));
        res.out.env_tasks.emplace_back(
            tk.environment_name(e),
            c ? static_cast<std::size_t>(c->value) : std::size_t{0});
      }
      check_campaign(svc, rep, metrics, res.errors);
      if (traced) {
        sample();  // the end point: every submission settled
        res.journal_records = svc.journal().size();
        res.metrics = metrics;
      }
    } else {
      core::CompositeReport r;
      if (p.broker)
        r = tk.run(*p.workflow, *p.broker);
      else
        r = tk.run(*p.workflow, p.env);
      res.run_s = now_s() - t_run;
      res.rss_mb = current_rss_mb();
      spans.close(run_span);
      res.out.makespan = r.makespan;
      for (const core::EnvironmentReport& e : r.environments) {
        res.out.env_tasks.emplace_back(e.name, e.tasks_run);
        res.out.tasks += e.tasks_run;
      }
      res.out.attempted = p.workflow->task_count();
      res.out.failed = res.out.attempted - std::min(res.out.attempted, res.out.tasks);
      check_single_run(p, r, res.errors);
      if (traced) res.metrics = r.metrics;
    }
    if (traced) {
      res.events_scheduled = sim.scheduled_events();
      res.events_cancelled = sim.cancelled_events();
      res.queue_peak = sim.queue_high_water();
    }
  }
  release_heap();
  spans.close(rep_span);
  res.spans = spans.take();
  return res;
}

void check_expected(const SimOutputs& out, const SimOutputs& expected,
                    std::vector<std::string>& errors) {
  const double tol = 1e-6 * std::max(1.0, std::abs(expected.makespan));
  require(errors, std::abs(out.makespan - expected.makespan) <= tol,
          "makespan " + std::to_string(out.makespan) + " != expected " +
              std::to_string(expected.makespan));
  auto sorted = [](std::vector<std::pair<std::string, std::size_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  require(errors, sorted(out.env_tasks) == sorted(expected.env_tasks),
          "per-environment task counts differ from expected");
}

}  // namespace perfbench
