// The two pfaird workloads.
//
// Untraced runs drive serve::Daemon::process_line, first closed loop
// (one client, next request after the reply; only process_line and the
// Daemon constructor are timed) and then open loop at a fixed rate, each
// request timed from when it was due.  Traced runs drive a shadow of the
// Daemon built from the same public calls in the same order as
// Daemon::write_response, timing each call; its decision digest must
// equal the Daemon's.
#include <algorithm>
#include <charconv>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/factory.h"
#include "obs/json.h"
#include "serve/admission.h"
#include "serve/daemon.h"
#include "serve/request.h"
#include "workloads.h"

namespace bench {
namespace {

using pfair::TaskId;
using pfair::Time;
using pfair::UniTask;
using pfair::kNoTask;
namespace engine = pfair::engine;
namespace serve = pfair::serve;
namespace json = pfair::obs::json;

__extension__ typedef __int128 Wide;

// --- decision lines -------------------------------------------------------

/// Raw value of `key` in one flat decision line ("" when absent).  Keys
/// are unique and values never contain `"key":`, so a scan suffices.
std::string_view field(std::string_view line, std::string_view key) {
  std::size_t pos = 0;
  while ((pos = line.find(key, pos)) != std::string_view::npos) {
    const std::size_t after = pos + key.size();
    if (pos > 0 && line[pos - 1] == '"' && after + 1 < line.size() && line[after] == '"' &&
        line[after + 1] == ':') {
      const std::size_t b = after + 2;
      if (b < line.size() && line[b] == '"') {
        const std::size_t e = line.find('"', b + 1);
        return line.substr(b + 1, e - b - 1);
      }
      const std::size_t e = line.find_first_of(",}", b);
      return line.substr(b, e - b);
    }
    pos = after;
  }
  return {};
}

std::int64_t to_int(std::string_view v, std::int64_t absent) {
  std::int64_t out = absent;
  if (!v.empty()) std::from_chars(v.data(), v.data() + v.size(), out);
  return out;
}

std::int64_t to_flag(std::string_view v) { return v.empty() ? 2 : (v == "true" ? 1 : 0); }

/// The decision digest covers (seq, op, admit, task, tier, approx) only, so
/// fields added to decision lines later leave it unchanged.
void digest_decision(Digest& d, std::string_view line) {
  d.add(to_int(field(line, "seq"), -2));
  d.add(field(line, "op"));
  d.add(to_flag(field(line, "admit")));
  d.add(to_int(field(line, "task"), -2));
  d.add(to_int(field(line, "tier"), -2));
  d.add(to_flag(field(line, "approx")));
}

/// Tier mix and outcome shares, counted from the replies.
struct DecisionStats {
  std::uint64_t answered = 0;   ///< every sub-request answered
  std::uint64_t decisions = 0;  ///< join answers (the only admission requests sent)
  std::uint64_t tier[3] = {0, 0, 0};
  std::uint64_t approx = 0;
  std::uint64_t admits = 0;
  std::uint64_t live_sum = 0;  ///< committed tasks seen at each decision

  void note(std::string_view line, std::uint64_t live) {
    ++answered;
    const std::int64_t t = to_int(field(line, "tier"), -1);
    if (t < 0 || t > 2) return;
    ++decisions;
    ++tier[t];
    if (field(line, "approx") == "true") ++approx;
    if (field(line, "admit") == "true") ++admits;
    live_sum += live;
  }
  [[nodiscard]] double share(std::uint64_t n) const {
    return decisions > 0 ? static_cast<double>(n) / static_cast<double>(decisions) : 0.0;
  }
};

void append_int(std::string& s, std::int64_t v) {
  char buf[24];
  s.append(buf, static_cast<std::size_t>(std::to_chars(buf, buf + sizeof buf, v).ptr - buf));
}

std::string join_line(std::int64_t e, std::int64_t p) {
  std::string s = "{\"execution\":";
  append_int(s, e);
  s += ",\"op\":\"join\",\"period\":";
  append_int(s, p);
  s += '}';
  return s;
}

// --- the shadow Daemon ----------------------------------------------------

/// "num/den" (or "num"), as the Daemon renders "total".
std::string_view format_ratio(const pfair::Rational& r, char (&buf)[48]) {
  char* p = std::to_chars(buf, buf + 24, r.num()).ptr;
  if (r.den() != 1) {
    *p++ = '/';
    p = std::to_chars(p, buf + 48, r.den()).ptr;
  }
  return {buf, static_cast<std::size_t>(p - buf)};
}

/// The Daemon's simulator config for the two kinds the workloads serve.
engine::SimulatorConfig simulator_config(const serve::DaemonConfig& c) {
  engine::SimulatorConfig sc;
  sc.pfair.processors = c.processors;
  sc.global_job.processors = c.processors;
  sc.global_job.algorithm = c.algorithm;
  return sc;
}

serve::AdmissionConfig admission_config(const serve::DaemonConfig& c) {
  serve::AdmissionConfig a;
  a.kind = c.kind;
  a.processors = c.processors;
  a.algorithm = c.algorithm;
  a.overhead_aware = c.overhead_aware;
  a.overhead = c.overhead;
  a.cache_delay_us = c.cache_delay_us;
  a.exact_budget = c.exact_budget;
  a.mirror_shards = c.mirror_shards;
  a.memo_capacity = c.memo_capacity;
  return a;
}

/// Daemon::process_line rebuilt from public calls, each one a span.  It
/// covers what the workloads send (join, leave, query and batches of
/// joins, with inline prewarm) and throws on anything else rather than
/// answer differently from the Daemon.
class Shadow {
 public:
  Shadow(const serve::DaemonConfig& c, Tracer& tr)
      : config_(c),
        sim_(engine::make_simulator(c.kind, simulator_config(c))),
        gate_(admission_config(c)),
        tr_(tr) {}

  std::string process_line(std::string_view line) {
    std::string out;
    const std::optional<serve::Request> req =
        timed(tr_, Layer::kParse, [&] { return serve::parse_request(line); });
    if (!req.has_value()) throw std::logic_error("shadow pipeline: unparsable request");
    if (req->op == serve::RequestOp::kBatch) {
      prewarm(req->batch);
      for (std::size_t i = 0; i < req->batch.size(); ++i) {
        if (i > 0) out += '\n';
        answer_request(req->batch[i], out);
      }
    } else {
      answer_request(*req, out);
    }
    return out;
  }

  [[nodiscard]] engine::Simulator& simulator() { return *sim_; }

 private:
  void answer_request(const serve::Request& r, std::string& out) {
    write_response(r, seq_++, out);
    if (config_.advance_per_request <= 0) return;
    timed(tr_, Layer::kSimRunUntil,
          [&] { sim_->run_until(sim_->now() + config_.advance_per_request); });
    timed(tr_, Layer::kAdvanceTo, [&] { gate_.advance_to(sim_->now()); });
  }

  /// AdmissionController::decide_join, one tier at a time.
  serve::Decision decide(const UniTask& t) {
    if (const std::optional<serve::Decision> d0 =
            timed(tr_, Layer::kTier0, [&] { return gate_.tier0(t); }))
      return *d0;
    const serve::Decision d1 = timed(tr_, Layer::kTier1, [&] { return gate_.tier1(t); });
    if (d1.admit) return d1;
    const std::uint64_t hits = gate_.memo_hits();
    const std::uint64_t t0 = now_ns();
    const std::optional<serve::Decision> d2 = gate_.tier2(t);
    tr_.record(gate_.memo_hits() > hits ? Layer::kTier2Hit : Layer::kTier2Miss, t0, now_ns());
    return d2.has_value() ? *d2 : d1;
  }

  void write_response(const serve::Request& r, std::uint64_t seq, std::string& out) {
    timed(tr_, Layer::kAdvanceTo, [&] { gate_.advance_to(sim_->now()); });
    const auto entry = static_cast<std::int64_t>(sim_->now());
    const char* opname = serve::to_string(r.op);
    const auto sq = static_cast<std::int64_t>(seq);
    char tbuf[48];
    switch (r.op) {
      case serve::RequestOp::kJoin: {
        const UniTask cand{r.execution, r.period};
        serve::Decision d = decide(cand);
        TaskId assigned = kNoTask;
        if (d.admit) {
          const engine::TaskSpec spec = engine::task_spec(r.execution, r.period, r.name);
          if (sim_->can_dynamic()) {
            if (const std::optional<TaskId> id =
                    timed(tr_, Layer::kSimJoin, [&] { return sim_->join(spec); }))
              assigned = *id;
          } else if (timed(tr_, Layer::kSimAdmit, [&] { return sim_->admit(spec); })) {
            assigned = next_static_id_++;
          }
          if (assigned == kNoTask) {
            d.admit = false;
            d.reason = "sim-reject";
          } else {
            timed(tr_, Layer::kCommit, [&] { gate_.commit(assigned, cand); });
          }
        }
        timed(tr_, Layer::kJsonWrite, [&] {
          json::ObjectWriter w(out);
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
          w.finish();
        });
        return;
      }
      case serve::RequestOp::kLeave: {
        const std::optional<Time> free =
            timed(tr_, Layer::kSimRequestLeave, [&] { return sim_->request_leave(r.task); });
        if (!free.has_value()) throw std::logic_error("shadow pipeline: leave was refused");
        timed(tr_, Layer::kScheduleRelease, [&] { gate_.schedule_release(r.task, *free); });
        timed(tr_, Layer::kJsonWrite, [&] {
          json::ObjectWriter w(out);
          w.field_int("free_at", static_cast<std::int64_t>(*free))
              .field_bool("ok", true)
              .field_str("op", opname)
              .field_int("seq", sq)
              .field_int("task", static_cast<std::int64_t>(r.task))
              .field_int("time", entry);
          w.finish();
        });
        return;
      }
      case serve::RequestOp::kQuery:
        timed(tr_, Layer::kJsonWrite, [&] {
          json::ObjectWriter w(out);
          w.field_str("op", opname)
              .field_int("seq", sq)
              .field_int("tasks", static_cast<std::int64_t>(gate_.committed()))
              .field_int("time", entry)
              .field_str("total", format_ratio(gate_.total_weight(), tbuf));
          w.finish();
        });
        return;
      default:
        throw std::logic_error(std::string("shadow pipeline: no workload sends ") + opname);
    }
  }

  /// Daemon::prewarm: warm the joins up to the first leave against the
  /// group-entry state.
  void prewarm(const std::vector<serve::Request>& reqs) {
    std::vector<std::pair<UniTask, TaskId>> cands;
    for (const serve::Request& r : reqs) {
      if (r.op == serve::RequestOp::kLeave) break;
      if (r.op == serve::RequestOp::kJoin)
        cands.emplace_back(UniTask{r.execution, r.period}, kNoTask);
    }
    if (cands.empty()) return;
    timed(tr_, Layer::kAdvanceTo, [&] { gate_.advance_to(sim_->now()); });
    timed(tr_, Layer::kPrewarm, [&] { gate_.prewarm_tier2(cands, nullptr); });
  }

  serve::DaemonConfig config_;
  std::unique_ptr<engine::Simulator> sim_;
  serve::AdmissionController gate_;
  Tracer& tr_;
  std::uint64_t seq_ = 0;
  TaskId next_static_id_ = 0;
};

/// The untraced server: the Daemon itself.
class DaemonServer {
 public:
  DaemonServer(const serve::DaemonConfig& c, Tracer& /*unused*/) : d_(c) {}
  std::string process_line(std::string_view line) { return d_.process_line(line); }
  [[nodiscard]] engine::Simulator& simulator() { return d_.simulator(); }

 private:
  serve::Daemon d_;
};

// --- serve-pfair-churn ----------------------------------------------------

constexpr int kChurnProcessors = 8;
constexpr std::size_t kChurnSessions = 4;      ///< sessions per round
constexpr std::size_t kChurnRequests = 2500;  ///< requests per session
/// Open-loop rate: about half the closed-loop rate measured when the
/// benchmark was defined (see benchmark/README.md).  Fixed, never derived
/// at run time, so both sides of a comparison see the same offered load.
constexpr double kChurnRate = 140000.0;

/// Pre-drawn randomness of one request; the client turns it into a join,
/// leave or query depending on the replies so far.
struct ChurnStep {
  double roll = 0.0;
  std::uint64_t pick = 0;
  std::int64_t w = 0;  ///< join candidate's utilization, units of 1/720720
  std::string join;    ///< the join line
};

using ChurnSession = std::vector<ChurnStep>;

ChurnSession make_churn_session(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  const std::vector<std::int64_t> periods = base_divisors(4, 120);
  std::vector<ChurnStep> steps(n);
  for (ChurnStep& s : steps) {
    s.roll = rng.unit();
    s.pick = rng.next();
    const TaskDraw t = draw_task(rng, periods, 0.02, 0.33);
    s.w = t.execution * (kBasePeriod / t.period);
    s.join = join_line(t.execution, t.period);
  }
  return steps;
}

std::vector<ChurnSession> make_churn_sessions(std::uint64_t seed, std::size_t sessions,
                                              std::size_t n) {
  std::vector<ChurnSession> out;
  for (std::size_t i = 0; i < sessions; ++i)
    out.push_back(make_churn_session(derive_seed(seed, 1 + i), n));
  return out;
}

/// Closed-loop PD2 client.  It keeps the committed utilization between
/// 0.8 M and M, leaves only tasks it was granted, and checks every answer
/// against its own exact utilization sum (units of 1/720720).  It sends
/// no reweights: an immediate switch-over (a task that has not run yet)
/// is never applied by PfairSimulator, so the simulator and the gate
/// disagree from then on.
class ChurnClient {
 public:
  ChurnClient(const std::vector<ChurnSession>& sessions, int m)
      : sessions_(sessions), cap_(static_cast<Wide>(m) * kBasePeriod), low_(cap_ * 4 / 5) {}

  void begin_round() {
    s_ = 0;
    digest = Digest{};
    stats = DecisionStats{};
  }

  bool next_session() {
    if (s_ == sessions_.size()) return false;
    steps_ = &sessions_[s_++];
    i_ = 0;
    live_.clear();
    effective_ = counted_ = 0;
    counted_tasks_ = 0;
    frees_ = {};
    return true;
  }

  bool next(std::string& line) {
    if (i_ == steps_->size()) return false;
    const ChurnStep& s = (*steps_)[i_++];
    if (i_ % 32 == 0) {
      leaving_ = false;
      line = "{\"op\":\"query\"}";
      return true;
    }
    if (s.roll >= 0.6 && !live_.empty()) {
      idx_ = static_cast<std::size_t>(s.pick % live_.size());
      if (effective_ - live_[idx_].w >= low_) {
        leaving_ = true;
        line = "{\"op\":\"leave\",\"task\":";
        append_int(line, live_[idx_].id);
        line += '}';
        return true;
      }
    }
    leaving_ = false;
    w_ = s.w;
    line = s.join;
    return true;
  }

  void on_reply(std::string_view reply, Report& rep) {
    const std::int64_t time = to_int(field(reply, "time"), -1);
    while (!frees_.empty() && frees_.top().at <= time) {
      counted_ -= frees_.top().w;
      --counted_tasks_;
      frees_.pop();
    }
    digest_decision(digest, reply);
    stats.note(reply, static_cast<std::uint64_t>(counted_tasks_));
    if (!field(reply, "error").empty()) {
      ++rep.failed;
      return;
    }
    const std::string_view op = field(reply, "op");
    if (leaving_) {
      frees_.push({to_int(field(reply, "free_at"), time), live_[idx_].w});
      effective_ -= live_[idx_].w;
      live_[idx_] = live_.back();
      live_.pop_back();
    } else if (op == "join") {
      // Eq. (2) decides every PD2 join at Tier 0, and it is exact.
      const bool fits = counted_ + w_ <= cap_;
      if (field(reply, "admit") == "true") {
        if (!fits) rep.fail("join granted past M: " + std::string(reply));
        counted_ += w_;
        ++counted_tasks_;
        effective_ += w_;
        live_.push_back({static_cast<TaskId>(to_int(field(reply, "task"), -1)), w_});
      } else if (fits || field(reply, "reason") != "eq2") {
        rep.fail("join rejected although it fits: " + std::string(reply));
      }
    } else {
      // Query: the gate's committed count and exact total must match ours.
      const std::string_view total = field(reply, "total");
      const std::size_t slash = total.find('/');
      const Wide num = to_int(total.substr(0, slash), -1);
      const Wide den = slash == std::string_view::npos ? 1 : to_int(total.substr(slash + 1), 1);
      if (to_int(field(reply, "tasks"), -1) != counted_tasks_ ||
          num * kBasePeriod != counted_ * den)
        rep.fail("query disagrees with the client's exact total: " + std::string(reply));
    }
  }

  void end_session(engine::Simulator& sim, Report& rep, bool /*check*/) const {
    if (sim.metrics().deadline_misses != 0) rep.fail("serve-pfair-churn: PD2 deadline miss");
  }

  Digest digest;
  DecisionStats stats;

 private:
  struct Live {
    TaskId id;
    std::int64_t w;
  };
  struct Free {
    std::int64_t at, w;
    bool operator<(const Free& o) const { return at > o.at; }
  };

  const std::vector<ChurnSession>& sessions_;
  Wide cap_, low_;
  std::size_t s_ = 0, i_ = 0;
  const ChurnSession* steps_ = nullptr;
  std::vector<Live> live_;   ///< granted and not asked to leave
  Wide effective_ = 0;       ///< utilization of live_ (the band)
  Wide counted_ = 0;         ///< what the gate counts: leaves free when due
  std::int64_t counted_tasks_ = 0;
  std::priority_queue<Free> frees_;
  bool leaving_ = false;
  std::int64_t w_ = 0;
  std::size_t idx_ = 0;
};

// --- serve-gedf-exact -----------------------------------------------------

constexpr int kGedfProcessors = 4;
constexpr std::int64_t kGedfHyperperiod = 240;
constexpr std::size_t kGedfSessions = 384;  ///< sessions per round
constexpr std::size_t kGedfBatch = 8;
/// Open-loop rate in batch lines per second (about half the closed-loop
/// line rate measured when the benchmark was defined).
constexpr double kGedfLineRate = 3500.0;

struct GedfSession {
  std::vector<std::string> lines;  ///< batch lines of kGedfBatch joins
  std::vector<UniTask> joins;      ///< the joins, in request order
};

/// One session: a base set that GFB (Tier 0) admits, then probes whose
/// total lands between the GFB bound and M, where only the exact
/// hyperperiod test (Tier 2) can decide.  Periods divide 240.
GedfSession make_gedf_session(std::uint64_t seed) {
  Rng rng(seed);
  static const std::vector<std::int64_t> periods = [] {
    std::vector<std::int64_t> p;
    for (std::int64_t d = 4; d <= kGedfHyperperiod; ++d)
      if (kGedfHyperperiod % d == 0) p.push_back(d);
    return p;
  }();
  const auto draw = [&](double u_lo, double u_hi) {
    const TaskDraw t = draw_task(rng, periods, u_lo, u_hi - u_lo);
    return UniTask{t.execution, t.period};
  };
  constexpr std::int64_t m = kGedfProcessors;
  constexpr std::int64_t unit = kGedfHyperperiod;
  GedfSession s;
  std::int64_t total = 0, umax = 0;
  const std::int64_t base_target = unit * (14 + rng.uniform(0, 8)) / 10;
  for (int tries = 0; tries < 64 && total < base_target; ++tries) {
    const UniTask t = draw(0.05, 0.30);
    const std::int64_t w = t.execution * (unit / t.period);
    const std::int64_t after = total + w, um = std::max(umax, w);
    if (after > m * unit - (m - 1) * um) continue;  // GFB must admit
    s.joins.push_back(t);
    total = after;
    umax = um;
  }
  for (int i = 0; i < 24; ++i) {
    const double r = rng.unit();
    s.joins.push_back(r < 0.65   ? draw(0.45, 0.95)
                      : r < 0.85 ? draw(0.05, 0.25)
                                 : draw(0.9, 1.0));
  }
  for (std::size_t i = 0; i < s.joins.size(); i += kGedfBatch) {
    std::string line = "{\"op\":\"batch\",\"requests\":[";
    for (std::size_t k = i; k < std::min(s.joins.size(), i + kGedfBatch); ++k) {
      if (k > i) line += ',';
      line += join_line(s.joins[k].execution, s.joins[k].period);
    }
    line += "]}";
    s.lines.push_back(std::move(line));
  }
  return s;
}

std::vector<GedfSession> make_gedf_sessions(std::uint64_t seed, std::size_t n) {
  std::vector<GedfSession> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(make_gedf_session(derive_seed(seed, 100 + i)));
  return out;
}

class GedfClient {
 public:
  explicit GedfClient(const std::vector<GedfSession>& sessions) : sessions_(sessions) {}

  void begin_round() {
    s_ = 0;
    digest = Digest{};
    stats = DecisionStats{};
  }

  bool next_session() {
    if (s_ == sessions_.size()) return false;
    cur_ = &sessions_[s_++];
    l_ = j_ = 0;
    committed_ = 0;
    admitted_.clear();
    return true;
  }

  bool next(std::string& line) {
    if (l_ == cur_->lines.size()) return false;
    line = cur_->lines[l_++];
    return true;
  }

  void on_reply(std::string_view reply, Report& rep) {
    std::size_t pos = 0;
    while (pos <= reply.size()) {
      const std::size_t nl = std::min(reply.find('\n', pos), reply.size());
      const std::string_view d = reply.substr(pos, nl - pos);
      pos = nl + 1;
      digest_decision(digest, d);
      stats.note(d, admitted_.size());
      if (!field(d, "error").empty() || j_ >= cur_->joins.size()) {
        ++rep.failed;
        continue;
      }
      const UniTask& t = cur_->joins[j_++];
      const std::int64_t w = t.execution * (kGedfHyperperiod / t.period);
      constexpr std::int64_t cap = kGedfProcessors * kGedfHyperperiod;
      if (field(d, "admit") == "true") {
        if (committed_ + w > cap) rep.fail("global-job grant past M: " + std::string(d));
        committed_ += w;
        admitted_.push_back(t);
      } else if (field(d, "reason") == "utilization" && committed_ + w <= cap) {
        rep.fail("utilization reject of a fitting task: " + std::string(d));
      }
    }
  }

  /// The Tier-2 verdicts are checked by the simulator they model: the
  /// admitted set, in the (period, execution) order the gate judges it in,
  /// must run miss-free through one hyperperiod.  (Global EDF breaks
  /// deadline ties by task index, and the Daemon's own simulator holds the
  /// tasks in admission order, where some admitted sets do miss.)
  void end_session(engine::Simulator& sim, Report& rep, bool check) {
    if (check) {
      if (sim.metrics().tasks_admitted != admitted_.size())
        rep.fail("serve-gedf-exact: simulator and replies disagree on admits");
      std::sort(admitted_.begin(), admitted_.end(), [](const UniTask& a, const UniTask& b) {
        return a.period != b.period ? a.period < b.period : a.execution < b.execution;
      });
      engine::SimulatorConfig sc;
      sc.global_job.processors = kGedfProcessors;
      const auto judged = engine::make_simulator(engine::SchedulerKind::kGlobalJob, sc);
      for (const UniTask& t : admitted_)
        judged->admit(engine::task_spec(t.execution, t.period));
      judged->run_until(kGedfHyperperiod);
      if (judged->metrics().deadline_misses != 0)
        rep.fail("serve-gedf-exact: an admitted set missed a deadline");
    }
  }

  Digest digest;
  DecisionStats stats;

 private:
  const std::vector<GedfSession>& sessions_;
  const GedfSession* cur_ = nullptr;
  std::size_t s_ = 0, l_ = 0, j_ = 0;
  std::int64_t committed_ = 0;  ///< admitted utilization, 1/240 units
  std::vector<UniTask> admitted_;
};

// --- round loops ----------------------------------------------------------

/// Open-loop samples, by line of the round.
struct OpenLoop {
  double rate = 0.0;        ///< lines per second
  bool split = false;       ///< also record wait_us and late_us
  RoundSamples latency_us;  ///< completion - due
  RoundSamples wait_us;     ///< due -> start spent behind the previous line
  RoundSamples late_us;     ///< due -> start spent on client work
};

/// One round: every line of the script through a fresh server per session.
/// Returns the time spent in server constructors and process_line, and
/// adds each session's share to `session_busy` when given.  Recorded
/// samples are divided by `slow`, the host slowdown before the round.
template <class Server, class Client>
std::uint64_t serve_round(Client& client, const serve::DaemonConfig& cfg, Tracer& tr,
                          Report& rep, bool check, double slow, RoundSamples* session_busy,
                          OpenLoop* open) {
  client.begin_round();
  std::string line;
  std::uint64_t busy = 0, origin = 0, prev_end = 0, i = 0;
  // The offered rate is in baseline-host time too: on a host running
  // `slow` times slower, lines are due `slow` times further apart, so the
  // server's utilization, and with it the queueing, stays the same.
  const double gap = open != nullptr ? 1e9 * slow / open->rate : 0.0;
  for (std::size_t session = 0; client.next_session(); ++session) {
    // The server is built when the session's first line is due, so its
    // constructor counts toward that line.
    std::unique_ptr<Server> server;
    const std::uint64_t busy_before = busy;
    while (client.next(line)) {
      std::uint64_t due = 0;
      if (open != nullptr) {
        if (i == 0) origin = now_ns();
        due = origin + static_cast<std::uint64_t>(static_cast<double>(i) * gap);
        while (now_ns() < due) {
        }
      }
      const std::uint64_t t0 = now_ns();
      if (!server) {
        server = std::make_unique<Server>(cfg, tr);
        tr.record(Layer::kDaemonCtor, t0, now_ns());
      }
      const std::string reply = server->process_line(line);
      const std::uint64_t t1 = now_ns();
      busy += t1 - t0;
      if (open != nullptr) {
        const std::uint64_t behind = std::min(std::max(prev_end, due), t0) - due;
        open->latency_us.add(i, static_cast<double>(t1 - due) * 1e-3 / slow);
        if (open->split) {
          open->wait_us.add(i, static_cast<double>(behind) * 1e-3 / slow);
          open->late_us.add(i, static_cast<double>(t0 - due - behind) * 1e-3 / slow);
        }
        prev_end = t1;
      }
      client.on_reply(reply, rep);
      ++i;
    }
    if (session_busy != nullptr)
      session_busy->add(session, static_cast<double>(busy - busy_before) / slow);
    if (server) client.end_session(server->simulator(), rep, check);
  }
  rep.attempted += client.stats.answered;
  return busy;
}

struct ServeSpec {
  const char* name;
  serve::DaemonConfig config;
  double open_rate;
};

/// Closed-loop, open-loop and (in traced runs) shadow rounds alternate for
/// the whole budget, so a slow spell of the host lands on all of them.
template <class Client>
Report run_serve(const ServeSpec& spec, Client& client, double setup_s,
                 const RunOptions& opts) {
  Report rep;
  Tracer untraced;  // the Daemon records only its constructor
  Tracer tr;
  tr.set_capture(!opts.trace_file.empty());
  const std::uint64_t budget = static_cast<std::uint64_t>(opts.seconds * 1e9);
  const std::uint64_t start = now_ns();
  std::string first_digest;
  DecisionStats stats;
  const auto check_digest = [&](const char* what) {
    if (first_digest.empty()) {
      first_digest = client.digest.hex();
      stats = client.stats;
    } else if (client.digest.hex() != first_digest) {
      rep.fail(std::string(spec.name) + ": " + what + " digest " + client.digest.hex() +
               " != first round's " + first_digest);
    }
  };

  RoundSamples session_busy;  // closed loop: throughput
  OpenLoop open;              // open loop at the stored rate: latency from due time
  open.rate = spec.open_rate;
  open.split = opts.traced;
  std::uint64_t rounds = 0, traced_ns = 0;
  double traced_baseline_ns = 0.0;
  std::vector<double> slowdowns;
  do {
    slowdowns.push_back(host_slowdown());
    serve_round<DaemonServer>(client, spec.config, untraced, rep, rounds == 0, slowdowns.back(),
                              &session_busy, nullptr);
    check_digest("closed-loop");
    slowdowns.push_back(host_slowdown());
    serve_round<DaemonServer>(client, spec.config, untraced, rep, false, slowdowns.back(),
                              nullptr, &open);
    check_digest("open-loop");
    if (opts.traced) {
      const double slow = host_slowdown();
      const std::uint64_t ns = serve_round<Shadow>(client, spec.config, tr, rep, rounds == 0,
                                                   slow, nullptr, nullptr);
      traced_ns += ns;
      traced_baseline_ns += static_cast<double>(ns) / slow;
      tr.set_capture(false);
      check_digest("shadow");
    }
    ++rounds;
  } while (now_ns() - start < budget);
  const double round_ns = session_busy.sum_of_medians();
  const std::vector<double> latency = open.latency_us.medians();

  if (!opts.expect_digest.empty() && opts.expect_digest != first_digest)
    rep.fail(std::string(spec.name) + ": digest " + first_digest + " != stored " +
             opts.expect_digest);
  rep.note("digest " + first_digest);
  rep.note("answered_per_round " + std::to_string(stats.answered) + ", rounds " +
           std::to_string(rounds) + ", open loop " + std::to_string(latency.size()) +
           " lines per round at " + std::to_string(spec.open_rate) + "/s");
  rep.note("join_admit_share " + std::to_string(stats.share(stats.admits)));
  rep.note("host_slowdown " + std::to_string(median(slowdowns)));
  rep.note("tier_mix " + std::to_string(stats.share(stats.tier[0])) + " " +
           std::to_string(stats.share(stats.tier[1])) + " " +
           std::to_string(stats.share(stats.tier[2])) + " approx " +
           std::to_string(stats.share(stats.approx)));

  if (!opts.traced) {
    rep.metric("ops_per_s", static_cast<double>(stats.answered) / (round_ns * 1e-9), "1/s");
    rep.metric("op_p50_us", quantile(latency, 0.50), "us");
    rep.metric("op_p90_us", quantile(latency, 0.90), "us");
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return rep;
  }

  if (!opts.trace_file.empty() && !tr.write_chrome_trace(opts.trace_file))
    rep.fail("cannot write " + opts.trace_file);
  add_layer_metrics(rep, tr, rounds, traced_ns,
                    traced_baseline_ns / static_cast<double>(rounds) / round_ns);
  const auto& hit = tr.stat(Layer::kTier2Hit);
  const auto& miss = tr.stat(Layer::kTier2Miss);
  const std::uint64_t t2 = hit.calls + miss.calls;
  rep.metric("tier2.memo_hit_share",
             t2 > 0 ? static_cast<double>(hit.calls) / static_cast<double>(t2) : 0.0, "ratio");
  rep.metric("tier0.decided_share", stats.share(stats.tier[0]), "ratio");
  rep.metric("tier1.decided_share", stats.share(stats.tier[1]), "ratio");
  rep.metric("tier2.decided_share", stats.share(stats.tier[2]), "ratio");
  rep.metric("approx_share", stats.share(stats.approx), "ratio");
  rep.metric("admit_share", stats.share(stats.admits), "ratio");
  rep.metric("live_tasks",
             stats.decisions > 0
                 ? static_cast<double>(stats.live_sum) / static_cast<double>(stats.decisions)
                 : 0.0,
             "count");
  rep.metric("queue.wait_p99_us", quantile(open.wait_us.medians(), 0.99), "us");
  rep.metric("client.late_p99_us", quantile(open.late_us.medians(), 0.99), "us");
  return rep;
}

}  // namespace

Report run_serve_pfair_churn(const RunOptions& opts) {
  const std::size_t n = opts.smoke ? 1000 : kChurnRequests;
  std::vector<ChurnSession> sessions;
  const double setup_s = median_seconds(
      kSetupRepeats, [&] { sessions = make_churn_sessions(opts.seed, kChurnSessions, n); });
  ServeSpec spec{"serve-pfair-churn", {}, kChurnRate};
  spec.config.kind = engine::SchedulerKind::kPfair;
  spec.config.processors = kChurnProcessors;
  spec.config.advance_per_request = 1;
  ChurnClient client(sessions, kChurnProcessors);
  return run_serve(spec, client, setup_s, opts);
}

Report run_serve_gedf_exact(const RunOptions& opts) {
  const std::size_t n = opts.smoke ? 4 : kGedfSessions;
  std::vector<GedfSession> sessions;
  const double setup_s =
      median_seconds(kSetupRepeats, [&] { sessions = make_gedf_sessions(opts.seed, n); });
  ServeSpec spec{"serve-gedf-exact", {}, kGedfLineRate};
  spec.config.kind = engine::SchedulerKind::kGlobalJob;
  spec.config.processors = kGedfProcessors;
  spec.config.algorithm = pfair::UniAlgorithm::kEDF;
  // Prewarm runs inline (jobs = 1): with two pool workers on a shared
  // 4-core host, throughput fell by up to half whenever other load took
  // a core, and a single thread was faster even on an idle host.
  GedfClient client(sessions);
  return run_serve(spec, client, setup_s, opts);
}

}  // namespace bench
