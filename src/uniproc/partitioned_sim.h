// Partitioned-system runtime: an ensemble of independent uniprocessor
// EDF/RM simulators behind a bin-packing front end — the actual runtime
// the EDF-FF schedulability analysis of Sec. 4 models.
//
// Tasks are packed by partition_uni (partition/uni_partition.h) with
// the configured heuristic and the acceptance test of the configured
// algorithm: EDF's exact utilization test, or RM's response-time
// analysis, so every placed set is schedulable by the scheduler that
// runs it.
//
// Complements the analytic comparison (Figs. 3-4) with an executable
// one: the same workload can be run through PfairSimulator (global PD2)
// and PartitionedSimulator (EDF-FF) and their realised preemption /
// migration / context-switch / miss counts compared directly.  By
// construction the partitioned system never migrates; its per-processor
// schedulers run independently and in parallel (the scheduling-overhead
// advantage the paper concedes to partitioning).
#pragma once

#include <vector>

#include "engine/metrics.h"
#include "engine/simulator.h"
#include "partition/uni_partition.h"
#include "uniproc/uni_sim.h"

namespace pfair {

struct PartitionConfig {
  int max_processors = 1 << 12;  ///< open as many as the heuristic needs
  Heuristic heuristic = Heuristic::kFirstFit;
  UniAlgorithm algorithm = UniAlgorithm::kEDF;
};

/// The per-processor acceptance test that matches `algorithm`: the
/// utilization test for EDF, response-time analysis for RM.
[[nodiscard]] Acceptance acceptance_for(UniAlgorithm algorithm) noexcept;

class PartitionedSimulator : public engine::Simulator {
 public:
  /// Partitions `tasks` (failing tasks are dropped and reported) and
  /// builds one uniprocessor simulator per opened processor.
  PartitionedSimulator(const std::vector<UniTask>& tasks, PartitionConfig config);

  /// Admission before the simulation starts packs the enlarged set once
  /// and rebuilds the per-processor simulators only when the new task is
  /// placed; returns false once run_until() has advanced time, or when
  /// the new task cannot be placed.
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  void run_until(Time until) override;

  [[nodiscard]] Time now() const noexcept override { return now_; }

  /// Aggregated metrics across all processors.  Migrations are zero by
  /// construction; everything else is summed (earliest first miss).
  [[nodiscard]] const engine::Metrics& metrics() const override;

  [[nodiscard]] int processors() const noexcept { return static_cast<int>(sims_.size()); }
  [[nodiscard]] bool all_tasks_placed() const noexcept { return unplaced_.empty(); }
  [[nodiscard]] const std::vector<std::size_t>& unplaced() const noexcept { return unplaced_; }
  [[nodiscard]] const std::vector<int>& assignment() const noexcept { return assignment_; }

  /// Metrics of one processor's scheduler.
  [[nodiscard]] const engine::Metrics& processor_metrics(int proc) const {
    return sims_[static_cast<std::size_t>(proc)].metrics();
  }

  /// Observation: each member simulator stamps its events with its
  /// global processor id.  Task ids in the events are processor-local
  /// (the index within that processor's partition), since the members
  /// schedule independently.  Survives admit()'s re-partitioning.
  void attach_observer(obs::EventBus* bus) override;

 private:
  /// Packs tasks_ with the configured heuristic and acceptance test.
  [[nodiscard]] UniPartitionResult partition() const;
  /// Rebuilds the per-processor simulators from a packing of tasks_.
  void rebuild(const UniPartitionResult& part);

  std::vector<UniTask> tasks_;
  PartitionConfig config_;
  std::vector<UniprocSimulator> sims_;  ///< movable: vector relocation is safe
  std::vector<int> assignment_;
  std::vector<std::size_t> unplaced_;
  Time now_ = 0;
  obs::EventBus* bus_ = nullptr;       ///< borrowed; reattached on rebuild()
  // admit() outcomes; the member simulators only ever see placed tasks,
  // so these counters live on the ensemble and are stitched into the
  // aggregate by metrics().
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
  mutable engine::Metrics aggregate_;  ///< cache refreshed by metrics()
};

}  // namespace pfair
