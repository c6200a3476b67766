// HistogramSink: distribution metrics folded from the event stream.
//
// Two distributions the paper's totals flatten away:
//   - response times (slots), from kJobComplete events that carry one;
//   - per-slot dispatch latency (slots between a subtask's
//     pseudo-release and the quantum it actually received), from
//     kDispatch events.
// Each is an obs::Histogram that ExperimentHarness serializes into the
// BENCH_*.json reports.
#pragma once

#include <utility>

#include "obs/histogram.h"
#include "obs/sink.h"

namespace pfair::obs {

class HistogramSink : public Sink {
 public:
  HistogramSink()
      : response_time_(Histogram::exponential(1.0, 2.0, 20)),
        dispatch_latency_(Histogram::linear(0.0, 64.0, 64)) {}

  HistogramSink(Histogram response_time, Histogram dispatch_latency)
      : response_time_(std::move(response_time)),
        dispatch_latency_(std::move(dispatch_latency)) {}

  void on_event(const Event& e) override {
    switch (e.kind) {
      case EventKind::kJobComplete:
        if (e.value >= 0.0) response_time_.add(e.value);
        break;
      case EventKind::kDispatch:
        if (e.value >= 0.0) dispatch_latency_.add(e.value);
        break;
      default:
        break;
    }
  }

  [[nodiscard]] const Histogram& response_time() const noexcept { return response_time_; }
  [[nodiscard]] const Histogram& dispatch_latency() const noexcept {
    return dispatch_latency_;
  }

 private:
  Histogram response_time_;
  Histogram dispatch_latency_;
};

}  // namespace pfair::obs
