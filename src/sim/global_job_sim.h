// Global job-level EDF / RM on M processors (paper Sec. 1).
//
// The paper motivates Pfair by the failure of the *other* global
// approach: "Dhall and Liu have shown that global scheduling using
// either EDF or RM can result in arbitrarily-low processor utilization
// in multiprocessor systems."  This simulator implements exactly that
// straw man — the M highest-priority *jobs* (not quantum-level
// subtasks) run at each instant, preempting on releases — so the Dhall
// effect can be demonstrated next to PD2 scheduling the same task set
// without a miss.
//
// Continuous time (no quantisation); priorities change only at job
// releases, so the event loop advances between releases and
// completions.  Priority is (EDF: deadline, then) period, execution and
// task index, so equal keys never fall back on admission order.  Processor assignment uses the same affinity policy as
// the Pfair simulator (keep a continuing job on its processor) so the
// migration counts are comparable.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/metrics.h"
#include "engine/simulator.h"
#include "obs/bus.h"
#include "uniproc/uni_sim.h"  // UniAlgorithm, UniTask
#include "util/types.h"

namespace pfair {

struct GlobalJobConfig {
  int processors = 1;
  UniAlgorithm algorithm = UniAlgorithm::kEDF;
};

class GlobalJobSimulator : public engine::Simulator {
 public:
  GlobalJobSimulator(std::vector<UniTask> tasks, GlobalJobConfig config);

  GlobalJobSimulator(const GlobalJobSimulator&) = delete;
  GlobalJobSimulator& operator=(const GlobalJobSimulator&) = delete;

  /// Admits a periodic task releasing from the current time.
  bool admit(const engine::TaskSpec& spec) override;
  using engine::Simulator::admit;

  void run_until(Time until) override;

  [[nodiscard]] const engine::Metrics& metrics() const noexcept override {
    return metrics_;
  }
  [[nodiscard]] Time now() const noexcept override { return now_; }

  void attach_observer(obs::EventBus* bus) override { bus_ = bus; }

 private:
  struct Job {
    std::uint32_t task = 0;
    Time deadline = 0;
    std::int64_t remaining = 0;
    ProcId last_proc = kNoProc;
    bool running_prev = false;
  };

  void release_jobs(Time t);
  [[nodiscard]] Time next_release_time() const;
  [[nodiscard]] bool higher_priority(const Job& a, const Job& b) const;

  std::vector<UniTask> tasks_;
  GlobalJobConfig config_;
  std::vector<Time> next_release_;
  std::vector<std::int64_t> live_jobs_;
  std::vector<Job> ready_;  ///< all incomplete jobs (small sets: scans)
  Time now_ = 0;
  engine::Metrics metrics_;
  obs::EventBus* bus_ = nullptr;  ///< borrowed; nullptr = observation off
};

}  // namespace pfair
