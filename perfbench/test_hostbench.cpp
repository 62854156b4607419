// Tests of the host-throughput benchmark itself, at smoke size: correctness
// checks pass, outputs are a function of the seed, tracing does not change
// the simulation, and every named metric is reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>
#include <sstream>

#include "metrics.hpp"
#include "obs/prof/prof.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace prof = hhc::obs::prof;

constexpr std::uint64_t kSeed = 7;

class Workload : public ::testing::TestWithParam<std::string> {};

TEST_P(Workload, SmokeRepPassesCorrectnessCheck) {
  const RepResult r = run_rep(GetParam(), kSeed, Size::Smoke, false);
  EXPECT_TRUE(r.errors.empty()) << r.errors.front();
  EXPECT_GT(r.out.attempted, 0u);
  EXPECT_EQ(r.out.failed, 0u);
  EXPECT_GT(r.out.tasks, 0u);
  EXPECT_GT(r.out.makespan, 0.0);
  EXPECT_GT(r.run_s, 0.0);
  EXPECT_GT(r.rss_mb, 0.0);
}

TEST_P(Workload, SameSeedGivesIdenticalOutputs) {
  const RepResult a = run_rep(GetParam(), kSeed, Size::Smoke, false);
  const RepResult b = run_rep(GetParam(), kSeed, Size::Smoke, false);
  EXPECT_EQ(a.out, b.out);
  const RepResult c = run_rep(GetParam(), kSeed + 1, Size::Smoke, false);
  EXPECT_NE(a.out.makespan, c.out.makespan) << "the seed must reach the inputs";
}

TEST_P(Workload, TracingIsInert) {
  const RepResult plain = run_rep(GetParam(), kSeed, Size::Smoke, false);
  prof::reset();
  prof::set_enabled(true);
  const RepResult traced = run_rep(GetParam(), kSeed, Size::Smoke, true);
  prof::set_enabled(false);
  EXPECT_EQ(plain.out, traced.out);
  EXPECT_TRUE(traced.errors.empty());
  EXPECT_FALSE(traced.spans.empty());
}

TEST_P(Workload, EveryPerLayerMetricIsPresent) {
  const RepResult plain = run_rep(GetParam(), kSeed, Size::Smoke, false);
  prof::reset();
  prof::set_enabled(true);
  const RepResult traced = run_rep(GetParam(), kSeed, Size::Smoke, true);
  prof::set_enabled(false);
  const std::vector<Metric> m =
      per_layer(traced, prof::report(), prof::compiled(), plain.run_s);
  std::vector<std::string> names;
  for (const Metric& x : m) names.push_back(x.name);
  if (prof::compiled()) {
    EXPECT_EQ(names, per_layer_names());
  }
  for (const Metric& x : m) EXPECT_FALSE(x.unit.empty()) << x.name;
}

TEST_P(Workload, WindowMarksAreInertAndRepeatable) {
  const RepResult plain = run_rep(GetParam(), kSeed, Size::Smoke, false);
  const Windows windows{50, plain.out.makespan};
  const RepResult a = run_rep(GetParam(), kSeed, Size::Smoke, false, windows);
  const RepResult b = run_rep(GetParam(), kSeed, Size::Smoke, false, windows);
  EXPECT_EQ(plain.out, a.out);
  EXPECT_TRUE(a.errors.empty());
  EXPECT_TRUE(plain.marks.empty());
  EXPECT_EQ(a.marks.size(), 49u);
  EXPECT_EQ(a.marks.size(), b.marks.size());
  EXPECT_TRUE(std::is_sorted(a.marks.begin(), a.marks.end()));
  EXPECT_LE(a.marks.back(), a.run_s);
}

INSTANTIATE_TEST_SUITE_P(All, Workload, ::testing::ValuesIn(workload_names()),
                         [](const auto& param_info) { return param_info.param; });

TEST(Metrics, ProfilerCompiledOutLeavesRegionMetricsMissing) {
  RepResult r;
  r.out.tasks = 10;
  r.run_s = 1.0;
  const std::vector<Metric> with = per_layer(r, {}, true, 1.0);
  const std::vector<Metric> without = per_layer(r, {}, false, 1.0);
  std::set<std::string> kept;
  for (const Metric& x : without) kept.insert(x.name);
  EXPECT_LT(without.size(), with.size());
  EXPECT_FALSE(kept.count("federation.place_share"));
  EXPECT_FALSE(kept.count("toolkit.self_share"));
  EXPECT_TRUE(kept.count("cluster.sched_share"));
  EXPECT_TRUE(kept.count("sim.events_cancelled_per_task"));
}

TEST(Metrics, BestRunSumsTheFastestTimeOfEachWindow) {
  std::vector<RepResult> reps(2);
  reps[0].marks = {1.0, 3.0};  // windows 1, 2, 1
  reps[0].run_s = 4.0;
  reps[1].marks = {2.0, 3.0};  // windows 2, 1, 3
  reps[1].run_s = 6.0;
  EXPECT_DOUBLE_EQ(best_run_s(reps), 1.0 + 1.0 + 1.0);
  reps[1].marks.push_back(5.0);
  EXPECT_THROW(best_run_s(reps), std::runtime_error);
}

TEST(Metrics, EndToEndReportsEveryName) {
  std::vector<RepResult> reps(3);
  const double rates[] = {100.0, 300.0, 200.0};
  for (std::size_t i = 0; i < 3; ++i) {
    reps[i].out.tasks = 100;
    reps[i].run_s = 100.0 / rates[i];
    reps[i].rss_mb = 10.0 * static_cast<double>(i + 1);
  }
  const std::vector<Metric> m = end_to_end(reps, {0.3, 0.1, 0.2, 0.5});
  ASSERT_EQ(m.size(), end_to_end_names().size());
  EXPECT_EQ(m[0].name, "tasks_per_s");
  EXPECT_DOUBLE_EQ(m[0].value, 300.0);  // unmarked reps: the fastest whole run
  EXPECT_EQ(m[1].name, "setup_s");
  EXPECT_DOUBLE_EQ(m[1].value, 0.1);
  EXPECT_DOUBLE_EQ(m[2].value, 20.0);
}

TEST(Metrics, ExpectedOutputsCoverEveryWorkload) {
  std::ifstream in(PERFBENCH_EXPECTED_JSON);
  ASSERT_TRUE(in) << PERFBENCH_EXPECTED_JSON;
  std::ostringstream buf;
  buf << in.rdbuf();
  const hhc::Json doc = hhc::Json::parse(buf.str());
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("seed").as_int()), kDefaultSeed);
  for (const std::string& w : workload_names()) {
    const hhc::Json* j = doc.at("workloads").find(w);
    ASSERT_NE(j, nullptr) << w;
    const SimOutputs pinned = outputs_from_json(*j);
    EXPECT_GT(pinned.makespan, 0.0) << w;
    EXPECT_FALSE(pinned.env_tasks.empty()) << w;
    std::vector<std::string> errors;
    check_expected(pinned, pinned, errors);
    EXPECT_TRUE(errors.empty());
    SimOutputs off = pinned;
    off.makespan *= 1.0 + 1e-5;
    check_expected(off, pinned, errors);
    EXPECT_EQ(errors.size(), 1u) << "a 1e-5 makespan drift must be caught";
  }
}

}  // namespace
}  // namespace perfbench
