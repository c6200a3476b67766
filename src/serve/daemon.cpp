#include "serve/daemon.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <utility>

#include "engine/parallel.h"
#include "obs/event.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "obs/registry.h"

namespace pfair::serve {

namespace detail {
class PrewarmPool {
 public:
  explicit PrewarmPool(int jobs) : pool_(jobs) {}
  [[nodiscard]] engine::ThreadPool* get() noexcept { return &pool_; }

 private:
  engine::ThreadPool pool_;
};
}  // namespace detail

namespace {

/// "num/den" (or "num" when den == 1) into a stack buffer — the
/// allocation-free spelling of Rational::to_string for decision lines.
[[nodiscard]] std::string_view format_ratio(const Rational& r, char (&buf)[48]) {
  char* p = std::to_chars(buf, buf + 24, r.num()).ptr;
  if (r.den() != 1) {
    *p++ = '/';
    p = std::to_chars(p, buf + 48, r.den()).ptr;
  }
  return {buf, static_cast<std::size_t>(p - buf)};
}

[[nodiscard]] engine::SimulatorConfig simulator_config(const DaemonConfig& c) {
  engine::SimulatorConfig sc;
  sc.pfair.processors = c.processors;
  sc.partitioned.max_processors = c.processors;
  sc.partitioned.algorithm = c.algorithm;
  sc.global_job.processors = c.processors;
  sc.global_job.algorithm = c.algorithm;
  sc.uniproc.algorithm = c.algorithm;
  sc.wrr.processors = c.processors;
  return sc;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(config),
      sim_(engine::make_simulator(config.kind, simulator_config(config))),
      gate_(AdmissionConfig{config.kind, config.processors, config.algorithm,
                            config.overhead_aware, config.overhead, config.cache_delay_us,
                            config.exact_budget, config.mirror_shards,
                            config.memo_capacity}) {
  if (config_.jobs > 1) pool_ = std::make_unique<detail::PrewarmPool>(config_.jobs);
  // Synthetic resident ballast (admission_bench --residents): N
  // ultra-light tasks committed straight into the gate under ids from
  // the high half of the id space, which the simulator's dense
  // allocator never reaches.  The admission arithmetic then runs
  // against an N-task committed set while the simulator still only
  // executes the live stream's tasks — the bench measures gate
  // throughput at scale, not the slot kernel.  Periods cycle through
  // four classes at 2N..8N — the exact ΣU denominator stays at
  // lcm = 24N (dozens of distinct periods would overflow the
  // Rational) and the ballast totals 25/96 ~ 0.26 of one processor,
  // fitting every kind, including uniproc.
  const TaskId ballast_base = TaskId{1} << 31;
  for (std::size_t i = 0; i < config_.residents; ++i) {
    const auto p =
        static_cast<std::int64_t>(2 * config_.residents * (1 + i % 4));
    gate_.commit(ballast_base + static_cast<TaskId>(i), UniTask{1, p});
  }
}

Daemon::~Daemon() = default;

void Daemon::note_decision(const Decision& d, const UniTask& t, TaskId task) {
  if (d.admit) {
    ++stats_.admits;
  } else {
    ++stats_.rejects;
  }
  switch (d.tier) {
    case 0: ++stats_.tier0; break;
    case 1: ++stats_.tier1; break;
    default: ++stats_.tier2; break;
  }
  if (d.approx) ++stats_.approx;
  obs::emit(bus_, obs::EventKind::kAdmitRequest, sim_->now(), task, kNoProc,
            t.period > 0 ? t.utilization() : 0.0);
  obs::emit(bus_,
            d.admit ? obs::EventKind::kAdmitGrant : obs::EventKind::kAdmitReject,
            sim_->now(), task, kNoProc, static_cast<double>(d.tier));
}

void Daemon::write_response(const Request& r, std::uint64_t seq, std::string& out) {
  gate_.advance_to(sim_->now());
  const auto entry = static_cast<std::int64_t>(sim_->now());
  const char* opname = to_string(r.op);
  const auto sq = static_cast<std::int64_t>(seq);
  // Fields go out in ascending key order (the ObjectWriter contract),
  // so each shape below is byte-identical to the dumped-Object form
  // this loop used before it went allocation-free.
  char tbuf[48];  // stack home for the "total" weight rendering
  obs::json::ObjectWriter w(out);
  switch (r.op) {
    case RequestOp::kJoin: {
      const UniTask cand{r.execution, r.period};
      Decision d = gate_.decide_join(cand);
      TaskId assigned = kNoTask;
      if (d.admit) {
        const engine::TaskSpec spec = engine::task_spec(r.execution, r.period, r.name);
        if (sim_->can_dynamic()) {
          if (const std::optional<TaskId> id = sim_->join(spec)) assigned = *id;
        } else if (sim_->admit(spec)) {
          assigned = next_static_id_++;
        }
        if (assigned == kNoTask) {
          // The gate said yes but the scheduler refused (e.g. a static
          // kind past time 0): surface it, never leak a phantom admit.
          d.admit = false;
          d.reason = "sim-reject";
        } else {
          gate_.commit(assigned, cand);
        }
      }
      note_decision(d, cand, assigned);
      w.field_bool("admit", d.admit)
          .field_bool("approx", d.approx)
          .field_int("exact_events", static_cast<std::int64_t>(d.exact_events))
          .field_str("op", opname)
          .field_str("reason", d.reason)
          .field_int("seq", sq)
          .field_int("task",
                     assigned == kNoTask ? -1 : static_cast<std::int64_t>(assigned))
          .field_int("tier", d.tier)
          .field_int("time", entry)
          .field_str("total", format_ratio(gate_.total_weight(), tbuf));
      break;
    }
    case RequestOp::kLeave: {
      if (!sim_->can_dynamic()) {
        ++stats_.errors;
        w.field_str("error", "not-dynamic")
            .field_bool("ok", false)
            .field_str("op", opname)
            .field_int("seq", sq)
            .field_int("time", entry);
        break;
      }
      if (const std::optional<Time> free = sim_->request_leave(r.task)) {
        gate_.schedule_release(r.task, *free);
        w.field_int("free_at", static_cast<std::int64_t>(*free))
            .field_bool("ok", true)
            .field_str("op", opname)
            .field_int("seq", sq)
            .field_int("task", static_cast<std::int64_t>(r.task))
            .field_int("time", entry);
      } else {
        ++stats_.errors;
        w.field_str("error", "unknown-task")
            .field_bool("ok", false)
            .field_str("op", opname)
            .field_int("seq", sq)
            .field_int("task", static_cast<std::int64_t>(r.task))
            .field_int("time", entry);
      }
      break;
    }
    case RequestOp::kReweight: {
      if (!sim_->can_dynamic()) {
        ++stats_.errors;
        w.field_bool("admit", false)
            .field_str("error", "not-dynamic")
            .field_str("op", opname)
            .field_int("seq", sq)
            .field_int("time", entry);
        break;
      }
      const UniTask cand{r.execution, r.period};
      Decision d = gate_.decide_reweight(r.task, cand);
      if (!d.admit && std::string_view(d.reason) == "unknown-task") {
        ++stats_.errors;
        w.field_bool("admit", false)
            .field_str("error", "unknown-task")
            .field_str("op", opname)
            .field_int("seq", sq)
            .field_int("task", static_cast<std::int64_t>(r.task))
            .field_int("time", entry);
        break;
      }
      Time effective = -1;
      if (d.admit) {
        const std::optional<Time> when =
            sim_->request_reweight(r.task, engine::task_spec(r.execution, r.period));
        if (when.has_value()) {
          effective = *when;
          gate_.schedule_reweight(r.task, cand, *when);
        } else {
          d.admit = false;
          d.reason = "sim-reject";
        }
      }
      note_decision(d, cand, r.task);
      w.field_bool("admit", d.admit)
          .field_bool("approx", d.approx)
          .field_int("effective_at", static_cast<std::int64_t>(effective))
          .field_int("exact_events", static_cast<std::int64_t>(d.exact_events))
          .field_str("op", opname)
          .field_str("reason", d.reason)
          .field_int("seq", sq)
          .field_int("task", static_cast<std::int64_t>(r.task))
          .field_int("tier", d.tier)
          .field_int("time", entry)
          .field_str("total", format_ratio(gate_.total_weight(), tbuf));
      break;
    }
    case RequestOp::kQuery: {
      w.field_str("op", opname)
          .field_int("seq", sq)
          .field_int("tasks", static_cast<std::int64_t>(gate_.committed()))
          .field_int("time", entry)
          .field_str("total", format_ratio(gate_.total_weight(), tbuf));
      break;
    }
    case RequestOp::kAdvance: {
      if (r.to > sim_->now()) sim_->run_until(r.to);
      gate_.advance_to(sim_->now());
      w.field_int("now", static_cast<std::int64_t>(sim_->now()))
          .field_str("op", opname)
          .field_int("seq", sq)
          .field_int("time", entry);
      break;
    }
    case RequestOp::kBatch: {
      // Batches are unpacked in process_line(); parsing rejects nested
      // batches, so this only defends against future callers.
      ++stats_.errors;
      w.field_str("error", "bad-field")
          .field_bool("ok", false)
          .field_str("op", opname)
          .field_int("seq", sq)
          .field_int("time", entry);
      break;
    }
  }
  w.finish();
}

void Daemon::answer_request(const Request& r, std::string& out) {
  ++stats_.requests;
  const std::uint64_t seq = seq_++;
  write_response(r, seq, out);
  // Keep the quantum loop running underneath the request stream.
  if (config_.advance_per_request > 0) {
    sim_->run_until(sim_->now() + config_.advance_per_request);
    gate_.advance_to(sim_->now());
  }
}

namespace {

/// Collects the join/reweight candidates in `r` (batch sub-requests
/// included) that the decide path could escalate to Tier 2.  Returns
/// false to stop the group scan: a leave schedules a release and an
/// advance can fire pending ones, so warms computed past either run
/// against a task set the decide path may no longer see — wasted
/// Tier-2 simulations, never wrong answers.  Joins and reweights only
/// mutate when *admitted*, which the overloaded mixes make rare, so
/// scanning through them keeps the join-storm warm fan-out intact.
bool collect_tier2_candidates(const Request& r,
                              std::vector<std::pair<UniTask, TaskId>>& cands) {
  switch (r.op) {
    case RequestOp::kJoin:
      cands.emplace_back(UniTask{r.execution, r.period}, kNoTask);
      return true;
    case RequestOp::kReweight:
      cands.emplace_back(UniTask{r.execution, r.period}, r.task);
      return true;
    case RequestOp::kBatch:
      for (const Request& sub : r.batch)
        if (!collect_tier2_candidates(sub, cands)) return false;
      return true;
    case RequestOp::kLeave:
    case RequestOp::kAdvance:
      return false;
    default:
      return true;
  }
}

}  // namespace

void Daemon::prewarm(const std::vector<Request>& reqs) {
  // The mirror state the warms run against is the state the *first*
  // request in the group will see; requests that mutate the set
  // mid-group simply make the later warms useless (miss + cold
  // recompute), never wrong.
  std::vector<std::pair<UniTask, TaskId>> cands;
  for (const Request& r : reqs)
    if (!collect_tier2_candidates(r, cands)) break;
  warm_candidates(cands);
}

void Daemon::warm_candidates(const std::vector<std::pair<UniTask, TaskId>>& cands) {
  if (cands.empty()) return;
  gate_.advance_to(sim_->now());
  gate_.prewarm_tier2(cands, pool_ ? pool_->get() : nullptr);
}

void Daemon::note_batch(std::size_t size) {
  ++stats_.batches;
  stats_.batched_requests += size;
  if (size > stats_.batch_max) stats_.batch_max = size;
  stats_.batch_size.add(static_cast<double>(size));
}

void Daemon::answer_line(const std::optional<Request>& req, std::string_view error,
                         std::string& result) {
  result.clear();
  const std::uint64_t start = config_.measure_latency ? obs::prof::now_ns() : 0;
  if (req.has_value() && req->op == RequestOp::kBatch) {
    prewarm(req->batch);
    note_batch(req->batch.size());
    for (std::size_t i = 0; i < req->batch.size(); ++i) {
      if (i > 0) result += '\n';
      answer_request(req->batch[i], result);
    }
  } else if (req.has_value()) {
    answer_request(*req, result);
  } else {
    ++stats_.requests;
    const std::uint64_t seq = seq_++;
    ++stats_.errors;
    obs::json::ObjectWriter w(result);
    w.field_str("error", error)
        .field_str("op", "error")
        .field_int("seq", static_cast<std::int64_t>(seq));
    w.finish();
    if (config_.advance_per_request > 0) {
      sim_->run_until(sim_->now() + config_.advance_per_request);
      gate_.advance_to(sim_->now());
    }
  }
  if (config_.measure_latency) {
    const std::uint64_t end = obs::prof::now_ns();
    const std::uint64_t v = end > start ? end - start : 0;
    ++stats_.latency_count;
    stats_.latency_total_ns += v;
    if (v > stats_.latency_max_ns) stats_.latency_max_ns = v;
    stats_.latency_ns.add(static_cast<double>(v));
  }
}

void Daemon::process_line_into(std::string_view line, std::string& result) {
  std::string error;
  const std::optional<Request> req = parse_request(line, &error);
  answer_line(req, error, result);
}

std::string Daemon::process_line(std::string_view line) {
  std::string result;
  process_line_into(line, result);
  return result;
}

std::uint64_t Daemon::serve(std::istream& in, std::ostream& out) {
  std::uint64_t handled = 0;
  std::string line;
  std::string result;  // reused across lines: no per-line allocation
  if (config_.batch <= 1) {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      process_line_into(line, result);
      out << result << '\n';
      ++handled;
    }
    out.flush();
    return handled;
  }
  // Pipelined mode: group consecutive lines, warm the Tier-2 memo for
  // the whole group in parallel, then answer strictly in input order.
  // Each line is parsed exactly once — the parse feeds both the warm
  // pass and the answer pass.  The output is byte-identical to batch=1:
  // warming is a cache fill.
  std::vector<std::optional<Request>> group;
  std::vector<std::string> errors;
  std::vector<std::pair<UniTask, TaskId>> cands;
  group.reserve(config_.batch);
  errors.reserve(config_.batch);
  const auto flush = [&] {
    if (group.empty()) return;
    cands.clear();
    for (const std::optional<Request>& r : group)
      if (r.has_value() && !collect_tier2_candidates(*r, cands)) break;
    warm_candidates(cands);
    note_batch(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      answer_line(group[i], errors[i], result);
      out << result << '\n';
      ++handled;
    }
    group.clear();
    errors.clear();
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    errors.emplace_back();
    group.push_back(parse_request(line, &errors.back()));
    if (group.size() >= config_.batch) flush();
  }
  flush();
  out.flush();
  return handled;
}

void Daemon::publish_registry() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("serve.requests").add(stats_.requests);
  reg.counter("serve.admits").add(stats_.admits);
  reg.counter("serve.rejects").add(stats_.rejects);
  reg.counter("serve.errors").add(stats_.errors);
  reg.counter("serve.tier0").add(stats_.tier0);
  reg.counter("serve.tier1").add(stats_.tier1);
  reg.counter("serve.tier2").add(stats_.tier2);
  reg.counter("serve.approx").add(stats_.approx);
  obs::TimerStats ts;
  ts.count = stats_.latency_count;
  ts.total_ns = stats_.latency_total_ns;
  ts.max_ns = stats_.latency_max_ns;
  ts.hist = stats_.latency_ns;
  reg.record_timer("serve.decision", ts);
  reg.counter("serve.tier2_memo_hits").add(gate_.memo_hits());
  reg.counter("serve.tier2_memo_misses").add(gate_.memo_misses());
  // Batch-size distribution, reported through the timer channel (count
  // = groups, total/max/hist in sub-requests rather than ns).
  obs::TimerStats bs;
  bs.count = stats_.batches;
  bs.total_ns = stats_.batched_requests;
  bs.max_ns = stats_.batch_max;
  bs.hist = stats_.batch_size;
  reg.record_timer("serve.batch_size", bs);
}

}  // namespace pfair::serve
