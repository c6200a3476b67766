// Event-driven uniprocessor scheduling simulator (EDF and RM).
//
// Drives periodic job sets through a priority-driven preemptive
// uniprocessor scheduler, advancing directly between release and
// completion events (no quantisation).  Used for
//   - the Fig. 2(a) scheduling-overhead measurements (release
//     processing and each scheduler invocation — the binary-heap
//     operations choosing the next job — are the obs::prof kRelease and
//     kSelect phases, as in PfairSimulator), and
//   - validating the EDF preemption accounting the overhead model relies
//     on (number of preemptions <= number of jobs).
#pragma once

#include <cstdint>
#include <vector>

#include "engine/metrics.h"
#include "engine/simulator.h"
#include "obs/bus.h"
#include "uniproc/uni_task.h"
#include "util/binary_heap.h"
#include "util/types.h"

namespace pfair {

enum class UniAlgorithm : std::uint8_t { kEDF, kRM };

struct UniSimConfig {
  UniAlgorithm algorithm = UniAlgorithm::kEDF;
};

class UniprocSimulator : public engine::Simulator {
 public:
  UniprocSimulator(std::vector<UniTask> tasks, UniSimConfig config);

  // Movable (the ready-queue comparator carries the RM key inside each
  // Job instead of pointing back into tasks_, so nothing dangles);
  // copying a half-run simulator is almost always a bug, so copies stay
  // deleted.
  UniprocSimulator(const UniprocSimulator&) = delete;
  UniprocSimulator& operator=(const UniprocSimulator&) = delete;
  UniprocSimulator(UniprocSimulator&&) = default;
  UniprocSimulator& operator=(UniprocSimulator&&) = default;

  /// Admits a periodic task releasing from the current time.
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  /// Runs until (absolute) time `until`.
  void run_until(Time until) override;

  [[nodiscard]] const engine::Metrics& metrics() const noexcept override {
    return metrics_;
  }
  [[nodiscard]] Time now() const noexcept override { return now_; }

  void attach_observer(obs::EventBus* bus) override { bus_ = bus; }

  /// Observer attachment with an explicit processor id, so an ensemble
  /// (partitioned scheduling) can stamp each member's events with its
  /// slot in the global processor numbering.
  void set_observer(obs::EventBus* bus, ProcId proc) {
    bus_ = bus;
    proc_ = proc;
  }

 private:
  struct Job {
    std::uint32_t task = 0;
    Time deadline = 0;       ///< absolute
    std::int64_t remaining = 0;
    std::int64_t period = 0; ///< the task's period (RM priority key)
  };
  struct JobLess {
    UniAlgorithm alg = UniAlgorithm::kEDF;
    bool operator()(const Job& a, const Job& b) const noexcept {
      if (alg == UniAlgorithm::kEDF) {
        if (a.deadline != b.deadline) return a.deadline < b.deadline;
      } else {
        if (a.period != b.period) return a.period < b.period;
      }
      return a.task < b.task;
    }
  };

  void release_jobs(Time t);
  /// The scheduler proper: decides whether the running job changes.
  void invoke_scheduler(Time t);
  void complete_running(Time t);
  [[nodiscard]] Time next_release_time() const;

  struct Release {
    Time when = 0;
    std::uint32_t task = 0;
  };
  struct ReleaseLess {
    bool operator()(const Release& a, const Release& b) const noexcept {
      if (a.when != b.when) return a.when < b.when;
      return a.task < b.task;
    }
  };

  std::vector<UniTask> tasks_;
  UniSimConfig config_;
  BinaryHeap<Release, ReleaseLess> calendar_;  ///< event timers, one per task
  std::vector<std::int64_t> live_jobs_;        ///< per task: released, incomplete
  BinaryHeap<Job, JobLess> ready_;
  Job running_{};
  bool has_running_ = false;
  std::uint32_t last_on_cpu_ = 0xffffffffu;
  Time now_ = 0;
  engine::Metrics metrics_;
  obs::EventBus* bus_ = nullptr;  ///< borrowed; nullptr = observation off
  ProcId proc_ = 0;               ///< this processor's id in observer events
};

}  // namespace pfair
