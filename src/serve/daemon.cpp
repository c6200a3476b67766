#include "serve/daemon.h"

#include <charconv>
#include <istream>
#include <optional>
#include <ostream>

#include "obs/event.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "obs/registry.h"

namespace pfair::serve {

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

/// Renders one decision line into `out`, timed as the serve.write
/// phase: `fields` writes the members in ascending key order (the
/// ObjectWriter contract), so the line is byte-identical to the dumped
/// Object form, and finish() appends it in one piece.
template <class Fields>
void write_line(std::string& out, Time slot, const Fields& fields) {
  const obs::prof::ProfScope timing(obs::prof::Phase::kServeWrite, slot);
  obs::json::ObjectWriter w(out);
  fields(w);
  w.finish();
}

[[nodiscard]] engine::SimulatorConfig simulator_config(const DaemonConfig& c) {
  engine::SimulatorConfig sc;
  sc.set_processors(c.processors);
  sc.partitioned.algorithm = c.algorithm;
  sc.global_job.algorithm = c.algorithm;
  sc.uniproc.algorithm = c.algorithm;
  // Nothing reads BF's slot trace or RUN's segment log here, and both
  // grow with every slot served.
  sc.bf.record_trace = false;
  sc.run.record_segments = false;
  return sc;
}

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(config),
      sim_(engine::make_simulator(config.kind, simulator_config(config))),
      gate_(AdmissionConfig{.kind = config.kind,
                            .processors = config.processors,
                            .algorithm = config.algorithm,
                            .overhead_aware = config.overhead_aware,
                            .overhead = config.overhead,
                            .cache_delay_us = config.cache_delay_us,
                            .exact_budget = config.exact_budget,
                            .memo_capacity = config.memo_capacity}) {}

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
  using Writer = obs::json::ObjectWriter;
  char tbuf[48];  // stack home for the "total" weight rendering
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
      write_line(out, sim_->now(), [&](Writer& w) {
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
      });
      break;
    }
    case RequestOp::kLeave: {
      if (!sim_->can_dynamic()) {
        ++stats_.errors;
        write_line(out, sim_->now(), [&](Writer& w) {
          w.field_str("error", "not-dynamic")
              .field_bool("ok", false)
              .field_str("op", opname)
              .field_int("seq", sq)
              .field_int("time", entry);
        });
        break;
      }
      if (const std::optional<Time> free = sim_->request_leave(r.task)) {
        gate_.schedule_release(r.task, *free);
        write_line(out, sim_->now(), [&](Writer& w) {
          w.field_int("free_at", static_cast<std::int64_t>(*free))
              .field_bool("ok", true)
              .field_str("op", opname)
              .field_int("seq", sq)
              .field_int("task", static_cast<std::int64_t>(r.task))
              .field_int("time", entry);
        });
      } else {
        ++stats_.errors;
        write_line(out, sim_->now(), [&](Writer& w) {
          w.field_str("error", "unknown-task")
              .field_bool("ok", false)
              .field_str("op", opname)
              .field_int("seq", sq)
              .field_int("task", static_cast<std::int64_t>(r.task))
              .field_int("time", entry);
        });
      }
      break;
    }
    case RequestOp::kReweight: {
      if (!sim_->can_dynamic()) {
        ++stats_.errors;
        write_line(out, sim_->now(), [&](Writer& w) {
          w.field_bool("admit", false)
              .field_str("error", "not-dynamic")
              .field_str("op", opname)
              .field_int("seq", sq)
              .field_int("time", entry);
        });
        break;
      }
      const UniTask cand{r.execution, r.period};
      Decision d = gate_.decide_reweight(r.task, cand);
      if (!d.admit && std::string_view(d.reason) == "unknown-task") {
        ++stats_.errors;
        write_line(out, sim_->now(), [&](Writer& w) {
          w.field_bool("admit", false)
              .field_str("error", "unknown-task")
              .field_str("op", opname)
              .field_int("seq", sq)
              .field_int("task", static_cast<std::int64_t>(r.task))
              .field_int("time", entry);
        });
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
      write_line(out, sim_->now(), [&](Writer& w) {
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
      });
      break;
    }
    case RequestOp::kQuery: {
      write_line(out, sim_->now(), [&](Writer& w) {
        w.field_str("op", opname)
            .field_int("seq", sq)
            .field_int("tasks", static_cast<std::int64_t>(gate_.committed()))
            .field_int("time", entry)
            .field_str("total", format_ratio(gate_.total_weight(), tbuf));
      });
      break;
    }
    case RequestOp::kAdvance: {
      if (r.to > sim_->now()) sim_->run_until(r.to);
      gate_.advance_to(sim_->now());
      write_line(out, sim_->now(), [&](Writer& w) {
        w.field_int("now", static_cast<std::int64_t>(sim_->now()))
            .field_str("op", opname)
            .field_int("seq", sq)
            .field_int("time", entry);
      });
      break;
    }
    case RequestOp::kBatch: {
      // Batches are unpacked in process_line(); parsing rejects nested
      // batches, so this only defends against future callers.
      ++stats_.errors;
      write_line(out, sim_->now(), [&](Writer& w) {
        w.field_str("error", "bad-field")
            .field_bool("ok", false)
            .field_str("op", opname)
            .field_int("seq", sq)
            .field_int("time", entry);
      });
      break;
    }
  }
}

void Daemon::advance_per_request() {
  // Keep the quantum loop running underneath the request stream.
  if (config_.advance_per_request > 0) {
    sim_->run_until(sim_->now() + config_.advance_per_request);
    gate_.advance_to(sim_->now());
  }
}

void Daemon::answer_request(const Request& r, std::string& out) {
  ++stats_.requests;
  write_response(r, seq_++, out);
  advance_per_request();
}

void Daemon::answer_error(std::string_view error, std::string& out) {
  ++stats_.requests;
  ++stats_.errors;
  const auto seq = static_cast<std::int64_t>(seq_++);
  write_line(out, sim_->now(), [&](obs::json::ObjectWriter& w) {
    w.field_str("error", error).field_str("op", "error").field_int("seq", seq);
  });
  advance_per_request();
}

void Daemon::process_line_into(std::string_view line, std::string& out) {
  out.clear();
  const obs::prof::ProfScope timing(obs::prof::Phase::kServeDecision, sim_->now());
  std::string error;
  const std::optional<Request> req = parse_request(line, &error);
  if (!req.has_value()) {
    answer_error(error, out);
  } else if (req->op != RequestOp::kBatch) {
    answer_request(*req, out);
  } else {
    for (std::size_t i = 0; i < req->batch.size(); ++i) {
      if (i > 0) out += '\n';
      answer_request(req->batch[i], out);
    }
  }
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
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    process_line_into(line, result);
    out << result << '\n';
    ++handled;
  }
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
  reg.counter("serve.tier2_memo_hits").add(gate_.memo_hits());
  reg.counter("serve.tier2_memo_misses").add(gate_.memo_misses());
  obs::prof::snapshot_into(reg);
}

}  // namespace pfair::serve
