#include "uniproc/partitioned_sim.h"

namespace pfair {

Acceptance acceptance_for(UniAlgorithm algorithm) noexcept {
  return algorithm == UniAlgorithm::kRM ? Acceptance::kRmExact : Acceptance::kEdfUtilization;
}

PartitionedSimulator::PartitionedSimulator(const std::vector<UniTask>& tasks,
                                           PartitionConfig config)
    : tasks_(tasks), config_(config) {
  rebuild(partition());
}

UniPartitionResult PartitionedSimulator::partition() const {
  return partition_uni(tasks_, config_.max_processors, config_.heuristic,
                       acceptance_for(config_.algorithm));
}

void PartitionedSimulator::rebuild(const UniPartitionResult& part) {
  assignment_ = part.assignment;
  unplaced_.clear();
  std::vector<std::vector<UniTask>> groups(static_cast<std::size_t>(part.processors_used));
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (part.assignment[i] < 0) {
      unplaced_.push_back(i);
      continue;
    }
    groups[static_cast<std::size_t>(part.assignment[i])].push_back(tasks_[i]);
  }
  UniSimConfig uc;
  uc.algorithm = config_.algorithm;
  sims_.clear();
  sims_.reserve(groups.size());
  for (auto& g : groups) sims_.emplace_back(std::move(g), uc);
  for (std::size_t p = 0; p < sims_.size(); ++p)
    sims_[p].set_observer(bus_, static_cast<ProcId>(p));
}

void PartitionedSimulator::attach_observer(obs::EventBus* bus) {
  bus_ = bus;
  for (std::size_t p = 0; p < sims_.size(); ++p)
    sims_[p].set_observer(bus_, static_cast<ProcId>(p));
}

bool PartitionedSimulator::admit(const engine::TaskSpec& spec) {
  const UniTask t{spec.execution, spec.period};
  if (now_ > 0 || !t.valid()) {
    ++rejected_;
    return false;
  }
  tasks_.push_back(t);
  const UniPartitionResult part = partition();
  if (part.assignment.back() < 0) {
    tasks_.pop_back();
    ++rejected_;
    return false;
  }
  rebuild(part);
  ++admitted_;
  return true;
}

void PartitionedSimulator::run_until(Time until) {
  // Each processor's schedule is independent: run them one after the
  // other (wall-clock parallelism is irrelevant to the simulated
  // metrics; the *modelled* parallelism is what keeps per-invocation
  // scheduling cost flat in the processor count).
  for (UniprocSimulator& sim : sims_) sim.run_until(until);
  if (until > now_) now_ = until;
}

const engine::Metrics& PartitionedSimulator::metrics() const {
  aggregate_ = engine::Metrics{};
  for (const UniprocSimulator& sim : sims_) aggregate_.merge(sim.metrics());
  // Admission happens at the ensemble, not in the member schedulers
  // (they are rebuilt from already-placed tasks).
  aggregate_.tasks_admitted = admitted_;
  aggregate_.tasks_rejected = rejected_;
  return aggregate_;
}

}  // namespace pfair
