#include "obs/perfetto_sink.h"

#include <cstdio>
#include <map>
#include <utility>

#include "obs/json.h"
#include "obs/prof.h"

namespace pfair::obs {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// `"name":` and `name` as a JSON string.  Task names come from callers
/// (pfaird forwards a client's), so they are escaped like any string.
std::string name_member(std::string_view name) {
  std::string out = R"("name":)";
  json::write_string(out, name);
  return out;
}

}  // namespace

PerfettoSink::PerfettoSink(std::ostream& os, double us_per_slot)
    : os_(&os), us_per_slot_(us_per_slot) {
  *os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  write_event(R"("name":"process_name","ph":"M","pid":0,"args":{"name":"pfair"})");
}

std::string PerfettoSink::task_name(TaskId id) const {
  if (id < names_.size() && !names_[id].empty()) return names_[id];
  return "T" + std::to_string(id);
}

void PerfettoSink::write_event(const std::string& body) {
  if (!first_event_) *os_ << ",\n";
  first_event_ = false;
  *os_ << '{' << body << '}';
}

void PerfettoSink::ensure_thread_metadata(ProcId proc) {
  if (proc >= open_.size()) {
    open_.resize(proc + 1);
    thread_named_.resize(proc + 1, false);
  }
  if (!thread_named_[proc]) {
    thread_named_[proc] = true;
    write_event(R"("name":"thread_name","ph":"M","pid":0,"tid":)" + std::to_string(proc) +
                R"(,"args":{"name":"CPU )" + std::to_string(proc) + "\"}");
  }
}

void PerfettoSink::close_slice(ProcId proc) {
  OpenSlice& s = open_[proc];
  if (s.task == kNoTask) return;
  write_event(name_member(task_name(s.task)) + R"(,"cat":"quantum","ph":"X","ts":)" +
              num(static_cast<double>(s.start) * us_per_slot_) +
              R"(,"dur":)" + num(static_cast<double>(s.end - s.start) * us_per_slot_) +
              R"(,"pid":0,"tid":)" + std::to_string(proc) + R"(,"args":{"task":)" +
              std::to_string(s.task) + "}");
  s.task = kNoTask;
}

void PerfettoSink::begin_quantum(ProcId proc, TaskId task, Time t) {
  ensure_thread_metadata(proc);
  OpenSlice& s = open_[proc];
  if (s.task == task && s.end == t) {
    ++s.end;  // same task, contiguous slot: extend the slice
    return;
  }
  close_slice(proc);
  s.task = task;
  s.start = t;
  s.end = t + 1;
}

void PerfettoSink::instant(const Event& e, const char* label) {
  std::string name = label;
  if (e.task != kNoTask) name += " " + task_name(e.task);
  std::string body = name_member(name) + R"(,"cat":"event","ph":"i","s":"g","ts":)" +
                     num(static_cast<double>(e.time) * us_per_slot_) + R"(,"pid":0,"tid":0)";
  if (e.task != kNoTask) body += R"(,"args":{"task":)" + std::to_string(e.task) + "}";
  write_event(body);
}

void PerfettoSink::on_event(const Event& e) {
  if (closed_) return;
  switch (e.kind) {
    case EventKind::kDispatch:
      begin_quantum(e.proc, e.task, e.time);
      break;
    case EventKind::kExecSlice: {
      const ProcId proc = e.proc == kNoProc ? 0 : e.proc;
      ensure_thread_metadata(proc);
      close_slice(proc);
      write_event(name_member(task_name(e.task)) + R"(,"cat":"job","ph":"X","ts":)" +
                  num(static_cast<double>(e.time) * us_per_slot_) + R"(,"dur":)" +
                  num(e.value * us_per_slot_) + R"(,"pid":0,"tid":)" +
                  std::to_string(proc) + R"(,"args":{"task":)" + std::to_string(e.task) +
                  "}");
      break;
    }
    case EventKind::kServedSlice: {
      ensure_thread_metadata(0);
      close_slice(0);
      write_event(R"("name":"server S)" + std::to_string(e.task) +
                  R"(","cat":"server","ph":"X","ts":)" +
                  num(static_cast<double>(e.time) * us_per_slot_) + R"(,"dur":)" +
                  num(e.value * us_per_slot_) + R"(,"pid":0,"tid":0,"args":{"server":)" +
                  std::to_string(e.task) + "}");
      break;
    }
    case EventKind::kMigration: {
      // Flow arrow from the last slice the task held (on its old
      // processor) to the slice beginning now on the new one.  The
      // matching kDispatch for this slot may arrive after this event;
      // anchoring the arrowhead half a slot in keeps it inside either
      // way.
      const ProcId old_proc = static_cast<ProcId>(e.value);
      const std::uint64_t id = next_flow_id_++;
      write_event(R"("name":"migrate","cat":"migration","ph":"s","id":)" +
                  std::to_string(id) + R"(,"ts":)" +
                  num((static_cast<double>(e.time) - 0.5) * us_per_slot_) +
                  R"(,"pid":0,"tid":)" + std::to_string(old_proc) + R"(,"args":{"task":)" +
                  std::to_string(e.task) + "}");
      write_event(R"("name":"migrate","cat":"migration","ph":"f","bp":"e","id":)" +
                  std::to_string(id) + R"(,"ts":)" +
                  num((static_cast<double>(e.time) + 0.5) * us_per_slot_) +
                  R"(,"pid":0,"tid":)" + std::to_string(e.proc) + R"(,"args":{"task":)" +
                  std::to_string(e.task) + "}");
      break;
    }
    case EventKind::kDeadlineMiss:
      instant(e, "deadline miss");
      break;
    case EventKind::kComponentMiss:
      instant(e, "component deadline miss");
      break;
    case EventKind::kLagViolation:
      instant(e, "lag violation");
      break;
    case EventKind::kTaskJoin:
      instant(e, "join");
      break;
    case EventKind::kTaskLeave:
      instant(e, "leave");
      break;
    case EventKind::kBudgetPostpone:
      instant(e, "budget postpone");
      break;
    case EventKind::kLagSample:
      write_event(name_member("lag " + task_name(e.task)) + R"(,"ph":"C","ts":)" +
                  num(static_cast<double>(e.time) * us_per_slot_) +
                  R"(,"pid":0,"args":{"lag":)" + num(e.value) + "}");
      break;
    case EventKind::kSlotBegin:
    case EventKind::kSlotEnd:
    case EventKind::kPreemption:
    case EventKind::kContextSwitch:
    case EventKind::kComponentSwitch:
    case EventKind::kJobRelease:
    case EventKind::kJobComplete:
    case EventKind::kServedJobComplete:
    case EventKind::kSchedInvoke:
    case EventKind::kOverheadNs:
    case EventKind::kAdmitRequest:
    case EventKind::kAdmitGrant:
    case EventKind::kAdmitReject:
      break;  // counter-level detail; not drawn on the timeline
  }
}

void PerfettoSink::write_prof_tracks() {
  if (!prof::enabled() || !prof::span_recording()) return;
  const std::vector<prof::Span> spans = prof::collect_spans();
  if (spans.empty()) return;
  write_event(R"("name":"process_name","ph":"M","pid":1,"args":{"name":"prof"})");
  bool named = false;                    // phase-track metadata emitted
  std::map<Time, double> used;           // slot -> us consumed on the phase track
  std::map<std::int32_t, double> busy_ns;  // worker -> cumulative busy ns
  for (const prof::Span& s : spans) {
    const double slot_us = static_cast<double>(s.slot < 0 ? 0 : s.slot) * us_per_slot_;
    if (s.phase == prof::Phase::kPoolJob) {
      // Worker utilization: a cumulative busy-ns counter per worker.
      double& total = busy_ns[s.worker];
      total += static_cast<double>(s.ns);
      write_event(R"("name":"worker )" + std::to_string(s.worker) +
                  R"( busy_ns","cat":"prof","ph":"C","ts":)" + num(slot_us) +
                  R"(,"pid":1,"args":{"busy_ns":)" + num(total) + "}");
      continue;
    }
    // Phase slice on the kernel-phase track, stacked after the slot's
    // earlier spans so slices within one slot never overlap.
    if (!named) {
      named = true;
      write_event(R"("name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"phases"})");
    }
    double& offset = used[s.slot];
    const double dur_us = static_cast<double>(s.ns) / 1000.0;
    write_event(R"("name":")" + std::string(prof::phase_name(s.phase)) +
                R"(","cat":"prof","ph":"X","ts":)" + num(slot_us + offset) +
                R"(,"dur":)" + num(dur_us) + R"(,"pid":1,"tid":0)" +
                R"(,"args":{"ns":)" + std::to_string(s.ns) + R"(,"slot":)" +
                std::to_string(static_cast<long long>(s.slot)) + "}");
    offset += dur_us;
  }
}

void PerfettoSink::flush() {
  if (closed_) return;
  closed_ = true;
  for (ProcId p = 0; p < open_.size(); ++p) close_slice(p);
  write_prof_tracks();
  *os_ << "\n]}\n";
  os_->flush();
}

}  // namespace pfair::obs
