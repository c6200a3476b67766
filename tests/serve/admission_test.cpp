// The tiered admission controller: per-kind tier semantics, exactness
// at the Eq.-(2) boundary, tier agreement, budget fallback, and the
// pending-release capacity model.
#include "serve/admission.h"

#include <gtest/gtest.h>

#include "serve/exact_gedf.h"
#include "util/rng.h"

namespace pfair::serve {
namespace {

using engine::SchedulerKind;

AdmissionConfig config_for(SchedulerKind kind, int m,
                           UniAlgorithm algorithm = UniAlgorithm::kEDF) {
  AdmissionConfig c;
  c.kind = kind;
  c.processors = m;
  c.algorithm = algorithm;
  return c;
}

TEST(Admission, PfairEqTwoIsExactAtTheBoundary) {
  AdmissionController gate(config_for(SchedulerKind::kPfair, 2));
  // Four tasks of weight 1/2 fill two processors exactly.
  for (TaskId id = 0; id < 4; ++id) {
    const Decision d = gate.decide_join(UniTask{1, 2});
    EXPECT_TRUE(d.admit) << "task " << id;
    EXPECT_EQ(d.tier, 0);
    EXPECT_EQ(d.reason, "eq2");
    gate.commit(id, UniTask{1, 2});
  }
  EXPECT_EQ(gate.total_weight(), Rational(2));
  // One more quantum of weight is one too many — and the gate must see
  // that exactly, not through double round-off.
  const Decision over = gate.decide_join(UniTask{1, 1000000});
  EXPECT_FALSE(over.admit);
  EXPECT_EQ(over.tier, 0);
  EXPECT_EQ(over.reason, "eq2");
}

TEST(Admission, BfAndRunDecideExactlyAtEqTwo) {
  // BF and RUN are optimal, so Eq. (2) is exact for them too — Tier 0
  // always decides, with no Eq.-(3) overhead deduction in the way.
  for (const SchedulerKind kind : {SchedulerKind::kBf, SchedulerKind::kRun}) {
    AdmissionController gate(config_for(kind, 2));
    for (TaskId id = 0; id < 4; ++id) {
      const Decision d = gate.decide_join(UniTask{1, 2});
      EXPECT_TRUE(d.admit) << to_string(kind) << " task " << id;
      EXPECT_EQ(d.tier, 0);
      EXPECT_EQ(d.reason, "eq2");
      gate.commit(id, UniTask{1, 2});
    }
    const Decision over = gate.decide_join(UniTask{1, 1000000});
    EXPECT_FALSE(over.admit) << to_string(kind);
    EXPECT_EQ(over.tier, 0);
    EXPECT_EQ(over.reason, "eq2");
  }
}

TEST(Admission, InvalidTaskIsRejectedBeforeAnyTier) {
  AdmissionController gate(config_for(SchedulerKind::kPfair, 2));
  const Decision d = gate.decide_join(UniTask{5, 3});
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.reason, "invalid");
}

TEST(Admission, ReweightOfUnknownTaskIsRefused) {
  AdmissionController gate(config_for(SchedulerKind::kPfair, 2));
  const Decision d = gate.decide_reweight(7, UniTask{1, 2});
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.reason, "unknown-task");
}

TEST(Admission, ReweightExcludesTheOldWeight) {
  AdmissionController gate(config_for(SchedulerKind::kPfair, 1));
  gate.commit(0, UniTask{3, 4});
  gate.commit(1, UniTask{1, 4});
  // 3/4 -> 1/2 fits only because the old 3/4 is excluded first.
  EXPECT_TRUE(gate.decide_reweight(0, UniTask{1, 2}).admit);
  // A join of the same rate must NOT fit (the old weight still counts
  // against joins).
  EXPECT_FALSE(gate.decide_join(UniTask{1, 2}).admit);
}

TEST(Admission, ScheduledReleasesFreeCapacityOnlyWhenTheClockArrives) {
  AdmissionController gate(config_for(SchedulerKind::kPfair, 1));
  gate.commit(0, UniTask{1, 2});
  gate.commit(1, UniTask{1, 2});
  gate.schedule_release(0, 10);
  gate.advance_to(9);
  EXPECT_EQ(gate.total_weight(), Rational(1));
  EXPECT_FALSE(gate.decide_join(UniTask{1, 2}).admit);
  gate.advance_to(10);
  EXPECT_EQ(gate.total_weight(), Rational(1, 2));
  EXPECT_TRUE(gate.decide_join(UniTask{1, 2}).admit);
  EXPECT_EQ(gate.committed(), 1u);
}

TEST(Admission, ScheduledReweightSwapsWeightsAtTheSwitchOver) {
  AdmissionController gate(config_for(SchedulerKind::kPfair, 1));
  gate.commit(0, UniTask{3, 4});
  gate.schedule_reweight(0, UniTask{1, 4}, 8);
  gate.advance_to(7);
  EXPECT_EQ(gate.total_weight(), Rational(3, 4));
  gate.advance_to(8);
  EXPECT_EQ(gate.total_weight(), Rational(1, 4));
  EXPECT_EQ(gate.committed(), 1u);
}

TEST(Admission, UniprocEdfDecidesAtTierZero) {
  AdmissionController gate(config_for(SchedulerKind::kUniproc, 1));
  gate.commit(0, UniTask{1, 2});
  const Decision fits = gate.decide_join(UniTask{1, 2});
  EXPECT_TRUE(fits.admit);
  EXPECT_EQ(fits.tier, 0);
  gate.commit(1, UniTask{1, 2});
  const Decision over = gate.decide_join(UniTask{1, 100});
  EXPECT_FALSE(over.admit);
  EXPECT_EQ(over.tier, 0);
}

TEST(Admission, UniprocRmEscalatesBetweenLiuLaylandAndOne) {
  AdmissionController gate(
      config_for(SchedulerKind::kUniproc, 1, UniAlgorithm::kRM));
  // Harmonic set at U = 1: far above the LL bound, yet RM-schedulable —
  // only the exact response-time analysis (Tier 2) can say yes.
  gate.commit(0, UniTask{1, 2});
  gate.commit(1, UniTask{1, 4});
  gate.commit(2, UniTask{1, 8});
  const Decision d = gate.decide_join(UniTask{1, 8});
  EXPECT_TRUE(d.admit);
  EXPECT_EQ(d.tier, 2);
  EXPECT_EQ(d.reason, "rm-exact");
  // Below the LL bound the cheap tier answers.
  AdmissionController fresh(
      config_for(SchedulerKind::kUniproc, 1, UniAlgorithm::kRM));
  const Decision cheap = fresh.decide_join(UniTask{1, 10});
  EXPECT_TRUE(cheap.admit);
  EXPECT_EQ(cheap.tier, 0);
  EXPECT_EQ(cheap.reason, "ll-bound");
}

TEST(Admission, PartitionedUsesLopezThenPacking) {
  AdmissionController gate(config_for(SchedulerKind::kPartitioned, 2));
  // Light tasks sit comfortably under the Lopez bound: Tier 0 answers.
  const Decision light = gate.decide_join(UniTask{1, 8});
  EXPECT_TRUE(light.admit);
  EXPECT_EQ(light.tier, 0);
  EXPECT_EQ(light.reason, "lopez");
  // Two 4/5 tasks sum to 1.6 > the Lopez bound of 3/2 (beta = 1), so
  // Tier 0 stays silent and the actual first-fit packing answers: one
  // heavy task per processor still fits.
  gate.commit(0, UniTask{4, 5});
  const Decision heavy = gate.decide_join(UniTask{4, 5});
  EXPECT_TRUE(heavy.admit);
  EXPECT_EQ(heavy.tier, 1);
  EXPECT_EQ(heavy.reason, "ff-packed");
  gate.commit(1, UniTask{4, 5});
  // A 2/5 task keeps total utilization at exactly m = 2 but fits on
  // neither 4/5-loaded processor: the packing says no.
  const Decision third = gate.decide_join(UniTask{2, 5});
  EXPECT_FALSE(third.admit);
  EXPECT_EQ(third.tier, 1);
  EXPECT_EQ(third.reason, "ff-unpacked");
}

TEST(Admission, GlobalJobDhallOverloadIsCaughtByTierTwo) {
  AdmissionController gate(config_for(SchedulerKind::kGlobalJob, 2));
  gate.commit(0, UniTask{5, 10});
  gate.commit(1, UniTask{5, 10});
  const Decision d = gate.decide_join(UniTask{10, 11});
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(d.tier, 2);
  EXPECT_EQ(d.reason, "exact-gedf");
  EXPECT_GT(d.exact_events, 0u);
}

TEST(Admission, BudgetExhaustionFallsBackToTierOneMarkedApprox) {
  AdmissionConfig c = config_for(SchedulerKind::kGlobalJob, 2);
  c.exact_budget = 1;  // too small to reach the miss at t = 11
  AdmissionController gate(c);
  gate.commit(0, UniTask{5, 10});
  gate.commit(1, UniTask{5, 10});
  const Decision d = gate.decide_join(UniTask{10, 11});
  EXPECT_FALSE(d.admit);
  EXPECT_TRUE(d.approx);
  EXPECT_EQ(d.tier, 1);
  EXPECT_EQ(d.reason, "no-bound");
}

TEST(Admission, TierZeroAdmitImpliesTierTwoAdmit) {
  // The whole point of the tiering: the cheap sufficient bounds must
  // never admit something the exact test would refuse.  Sweep seeded
  // random global-EDF states; wherever Tier 0 says yes, ask Tier 2.
  Rng rng(7);
  const std::int64_t periods[] = {2, 3, 4, 6, 8, 12};
  int tier0_admits = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 3));
    AdmissionController gate(config_for(SchedulerKind::kGlobalJob, m));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t p = periods[rng.uniform_int(0, 5)];
      const UniTask t{rng.uniform_int(1, p), p};
      if (gate.decide_join(t).admit) gate.commit(static_cast<TaskId>(i), t);
    }
    const std::int64_t p = periods[rng.uniform_int(0, 5)];
    const UniTask cand{rng.uniform_int(1, p), p};
    const std::optional<Decision> d0 = gate.tier0(cand);
    if (!d0.has_value() || !d0->admit) continue;
    ++tier0_admits;
    const std::optional<Decision> d2 = gate.tier2(cand);
    ASSERT_TRUE(d2.has_value());
    EXPECT_TRUE(d2->admit) << "trial " << trial << ": Tier 0 admitted {"
                           << cand.execution << "," << cand.period << "} on m=" << m
                           << " but the exact test refused";
  }
  EXPECT_GT(tier0_admits, 20);  // the sweep must actually exercise the claim
}

}  // namespace
}  // namespace pfair::serve
