// engine::ThreadPool / engine::ParallelSweep, the counter-based RNG
// streams underneath them, the golden --jobs determinism contract of
// the harness JSON, and the factory round-trip (make_simulator vs
// direct construction) for every SchedulerKind.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/factory.h"
#include "engine/harness.h"
#include "engine/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/generator.h"

namespace pfair::engine {
namespace {

// --- ThreadPool -----------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultWorkersIsPositive) {
  EXPECT_GE(ThreadPool::default_workers(), 1);
  ThreadPool pool;  // default-sized
  EXPECT_EQ(pool.workers(), ThreadPool::default_workers());
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
    // No wait(): destruction itself must let the queue drain.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, WaitRethrowsFirstJobError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error slot is cleared: the pool is reusable afterwards.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitWithNoJobsReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();
  pool.wait();
}

// --- counter-based RNG streams --------------------------------------

TEST(RngStream, PureFunctionOfSeedAndStream) {
  // Same (seed, stream) -> identical sequence, regardless of what other
  // streams were derived before (no hidden shared state).
  Rng a = Rng::stream(42, 7);
  (void)Rng::stream(42, 3);
  (void)Rng::stream(9, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngStream, DistinctStreamsDiverge) {
  Rng a = Rng::stream(42, 0);
  Rng b = Rng::stream(42, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);  // independent streams collide rarely
}

TEST(RngStream, SeedSeparatesFamilies) {
  EXPECT_NE(Rng::derive_stream_seed(1, 5), Rng::derive_stream_seed(2, 5));
  EXPECT_NE(Rng::derive_stream_seed(1, 5), Rng::derive_stream_seed(1, 6));
}

// --- ParallelSweep --------------------------------------------------

std::vector<double> sweep_once(int jobs, std::uint64_t seed, long long trials) {
  ParallelSweep sweep(jobs, seed);
  return sweep.run(3, trials, [](long long, Rng& rng) {
    double acc = 0.0;
    for (int i = 0; i < 50; ++i) acc += rng.uniform01();
    return acc;
  });
}

TEST(ParallelSweep, ResultsIdenticalAcrossWorkerCounts) {
  const std::vector<double> serial = sweep_once(1, 99, 300);
  for (const int jobs : {2, 3, 8}) {
    const std::vector<double> par = sweep_once(jobs, 99, 300);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(par[i], serial[i]) << "trial " << i << " jobs " << jobs;
  }
}

TEST(ParallelSweep, TrialIndexMatchesResultSlot) {
  ParallelSweep sweep(4, 1);
  const std::vector<long long> out =
      sweep.run(0, 100, [](long long trial, Rng&) { return trial; });
  for (long long i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(ParallelSweep, DistinctPointsDrawDistinctWorkloads) {
  ParallelSweep sweep(1, 7);
  const auto a = sweep.run(1, 4, [](long long, Rng& rng) { return rng.next(); });
  const auto b = sweep.run(2, 4, [](long long, Rng& rng) { return rng.next(); });
  EXPECT_NE(a, b);
}

TEST(ParallelSweep, ZeroTrialsYieldsEmpty) {
  ParallelSweep sweep(4, 1);
  EXPECT_TRUE(sweep_once(4, 1, 0).empty());
  (void)sweep;
}

TEST(ParallelSweep, TrialExceptionPropagates) {
  ParallelSweep sweep(4, 1);
  EXPECT_THROW(sweep.run(0, 64,
                         [](long long trial, Rng&) -> int {
                           if (trial == 17) throw std::runtime_error("trial 17");
                           return 0;
                         }),
               std::runtime_error);
}

// --- golden determinism: harness JSON across --jobs -----------------

// A miniature bench body: same sweep, merged into RunningStats rows in
// trial order, reported through the harness.  The JSON must be
// byte-identical for --jobs 1 and --jobs 8.
std::string mini_bench_json(const std::string& jobs_flag) {
  std::vector<std::string> raw = {"bench", "--trials=64", "--seed=5", jobs_flag};
  std::vector<char*> argv;
  argv.reserve(raw.size());
  for (std::string& s : raw) argv.push_back(s.data());
  ExperimentHarness h("mini", static_cast<int>(argv.size()), argv.data());
  ParallelSweep sweep(h.jobs(), h.seed(1));
  for (int pt = 0; pt < 3; ++pt) {
    const std::vector<double> vals = sweep.run(
        static_cast<std::uint64_t>(pt), h.trials(10), [&](long long, Rng& rng) {
          const std::vector<UniTask> ts = generate_uni_tasks(rng, 8, 2.0, 64);
          double u = 0.0;
          for (const UniTask& t : ts) u += t.utilization();
          return u;
        });
    RunningStats st;
    for (const double v : vals) st.add(v);
    h.add_row().set("point", static_cast<long long>(pt)).set("util", st);
  }
  return h.to_json();
}

TEST(ParallelSweep, HarnessJsonByteIdenticalAcrossJobs) {
  const std::string serial = mini_bench_json("--jobs=1");
  EXPECT_EQ(serial, mini_bench_json("--jobs=8"));
  EXPECT_EQ(serial, mini_bench_json("--jobs=3"));
  // --jobs must not leak into the report at all.
  EXPECT_EQ(serial.find("jobs"), std::string::npos);
}

// --- factory round-trip ---------------------------------------------

TEST(Factory, KindNamesRoundTrip) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto back = scheduler_kind_from_string(to_string(kind));
    ASSERT_TRUE(back.has_value()) << to_string(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(scheduler_kind_from_string("no-such-scheduler").has_value());
}

void expect_metrics_equal(const Metrics& a, const Metrics& b, const char* label) {
  EXPECT_EQ(a.slots, b.slots) << label;
  EXPECT_EQ(a.jobs_released, b.jobs_released) << label;
  EXPECT_EQ(a.jobs_completed, b.jobs_completed) << label;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses) << label;
  EXPECT_EQ(a.preemptions, b.preemptions) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.context_switches, b.context_switches) << label;
  EXPECT_EQ(a.scheduling_points, b.scheduling_points) << label;
  EXPECT_EQ(a.first_miss_time, b.first_miss_time) << label;
  EXPECT_EQ(a.response_time.count(), b.response_time.count()) << label;
  EXPECT_DOUBLE_EQ(a.response_time.mean(), b.response_time.mean()) << label;
}

TEST(Factory, EverySimulatorMatchesDirectConstruction) {
  // One modest feasible workload, admitted both through the factory
  // simulator and through a directly-constructed twin; the unified
  // metrics must agree field for field after the same horizon.
  const std::vector<UniTask> tasks = {{1, 4}, {2, 8}, {1, 5}, {3, 16}};
  SimulatorConfig cfg;
  cfg.pfair.processors = 2;
  cfg.partitioned.max_processors = 2;
  cfg.global_job.processors = 2;

  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const std::unique_ptr<Simulator> via_factory = make_simulator(kind, cfg);
    ASSERT_NE(via_factory, nullptr) << to_string(kind);
    std::unique_ptr<Simulator> direct;
    switch (kind) {
      case SchedulerKind::kPfair:
        direct = std::make_unique<PfairSimulator>(cfg.pfair);
        break;
      case SchedulerKind::kPartitioned:
        direct = std::make_unique<PartitionedSimulator>(std::vector<UniTask>{},
                                                        cfg.partitioned);
        break;
      case SchedulerKind::kGlobalJob:
        direct = std::make_unique<GlobalJobSimulator>(std::vector<UniTask>{},
                                                      cfg.global_job);
        break;
      case SchedulerKind::kUniproc:
        direct = std::make_unique<UniprocSimulator>(std::vector<UniTask>{},
                                                    cfg.uniproc);
        break;
      case SchedulerKind::kWrr:
        direct = std::make_unique<WrrSimulator>(TaskSet{}, cfg.wrr);
        break;
      case SchedulerKind::kCbs:
        direct = std::make_unique<CbsSimulator>(std::vector<UniTask>{}, cfg.cbs);
        break;
      case SchedulerKind::kBf:
        direct = std::make_unique<BfSimulator>(TaskSet{}, cfg.bf);
        break;
      case SchedulerKind::kRun:
        direct = std::make_unique<RunSimulator>(cfg.run);
        break;
    }
    for (const UniTask& t : tasks) {
      const bool a = via_factory->admit(task_spec(t.execution, t.period));
      const bool b = direct->admit(task_spec(t.execution, t.period));
      EXPECT_EQ(a, b) << to_string(kind);
    }
    via_factory->run_until(200);
    direct->run_until(200);
    EXPECT_EQ(via_factory->now(), direct->now()) << to_string(kind);
    expect_metrics_equal(via_factory->metrics(), direct->metrics(), to_string(kind));
  }
}

}  // namespace
}  // namespace pfair::engine
