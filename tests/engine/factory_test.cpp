#include "engine/factory.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pfair::engine {
namespace {

TEST(Factory, KindStringsRoundTrip) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto back = scheduler_kind_from_string(to_string(kind));
    ASSERT_TRUE(back.has_value()) << to_string(kind);
    EXPECT_EQ(*back, kind);
  }
}

TEST(Factory, UnknownKindStringsAreRejected) {
  EXPECT_FALSE(scheduler_kind_from_string("").has_value());
  EXPECT_FALSE(scheduler_kind_from_string("edf-global").has_value());
  EXPECT_FALSE(scheduler_kind_from_string("Pfair").has_value());  // case-sensitive
  EXPECT_FALSE(scheduler_kind_from_string("pfair ").has_value());
}

TEST(Factory, AlgorithmNamesAreEdfAndRmOnly) {
  EXPECT_EQ(uni_algorithm_from_string("edf"), UniAlgorithm::kEDF);
  EXPECT_EQ(uni_algorithm_from_string("rm"), UniAlgorithm::kRM);
  EXPECT_FALSE(uni_algorithm_from_string("").has_value());
  EXPECT_FALSE(uni_algorithm_from_string("RM").has_value());  // case-sensitive
  EXPECT_FALSE(uni_algorithm_from_string("dm").has_value());
}

TEST(Factory, DefaultConfigBuildsEveryKind) {
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    EXPECT_NE(make_simulator(kind), nullptr) << to_string(kind);
  }
}

/// Expects make_simulator(kind, config) to throw std::invalid_argument
/// with exactly `message`.
void expect_rejected(SchedulerKind kind, const SimulatorConfig& config,
                     const std::string& message) {
  try {
    (void)make_simulator(kind, config);
    FAIL() << "expected std::invalid_argument: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), message);
  }
}

TEST(Factory, RejectsZeroProcessors) {
  SimulatorConfig config;
  config.pfair.processors = 0;
  expect_rejected(SchedulerKind::kPfair, config,
                  "make_simulator(pfair): processors must be >= 1 (got 0)");
}

TEST(Factory, RejectsNegativeProcessors) {
  SimulatorConfig config;
  config.global_job.processors = -2;
  expect_rejected(SchedulerKind::kGlobalJob, config,
                  "make_simulator(global-job): processors must be >= 1 (got -2)");
}

TEST(Factory, RejectsZeroMaxProcessorsForPartitioned) {
  SimulatorConfig config;
  config.partitioned.max_processors = 0;
  expect_rejected(SchedulerKind::kPartitioned, config,
                  "make_simulator(partitioned): max_processors must be >= 1 (got 0)");
}

TEST(Factory, RejectsBadWrrConfig) {
  SimulatorConfig config;
  config.wrr.processors = 0;
  expect_rejected(SchedulerKind::kWrr, config,
                  "make_simulator(wrr): processors must be >= 1 (got 0)");
  config.wrr.processors = 2;
  config.wrr.frame = 0;
  expect_rejected(SchedulerKind::kWrr, config,
                  "make_simulator(wrr): frame must be >= 1 (got 0)");
}

TEST(Factory, RejectsDegenerateCbsServer) {
  SimulatorConfig config;
  config.cbs.servers.push_back(CbsServerSpec{0, 4, {}});
  expect_rejected(
      SchedulerKind::kCbs, config,
      "make_simulator(cbs): server 0 must have budget >= 1 and period >= 1 (got Q=0, T=4)");
}

TEST(Factory, RejectsBadBfAndRunConfigs) {
  SimulatorConfig config;
  config.bf.processors = 0;
  expect_rejected(SchedulerKind::kBf, config,
                  "make_simulator(bf): processors must be >= 1 (got 0)");
  config.bf.processors = 1;
  config.run.processors = -3;
  expect_rejected(SchedulerKind::kRun, config,
                  "make_simulator(run): processors must be >= 1 (got -3)");
}

TEST(Factory, ValidationOnlyReadsTheRequestedKindsSection) {
  // A zero in an unused column must not poison other kinds: the sweep
  // table mistake the validation exists to catch, inverted.
  SimulatorConfig config;
  config.pfair.processors = 0;
  EXPECT_NE(make_simulator(SchedulerKind::kUniproc, config), nullptr);
  EXPECT_NE(make_simulator(SchedulerKind::kGlobalJob, config), nullptr);
}

TEST(Factory, SetProcessorsReachesEveryMultiprocessorKind) {
  // Three weight-1 tasks fill three processors exactly: a kind left on
  // one processor refuses a task, misses, or (WRR, which counts no
  // misses) serves a third of the quanta.  uniproc and cbs are the
  // one-processor kinds and have no count to set.
  SimulatorConfig config;
  config.set_processors(3);
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    if (kind == SchedulerKind::kUniproc || kind == SchedulerKind::kCbs) continue;
    const std::unique_ptr<Simulator> sim = make_simulator(kind, config);
    for (int i = 0; i < 3; ++i)
      EXPECT_TRUE(sim->admit(task_spec(4, 4))) << to_string(kind) << " task " << i;
    sim->run_until(40);
    EXPECT_EQ(sim->metrics().deadline_misses, 0u) << to_string(kind);
    if (sim->metrics().slots > 0) {
      EXPECT_EQ(sim->metrics().busy_quanta, 3 * sim->metrics().slots) << to_string(kind);
    }
  }
}

}  // namespace
}  // namespace pfair::engine
