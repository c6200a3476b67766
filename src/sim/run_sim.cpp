#include "sim/run_sim.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "partition/heuristics.h"
#include "util/math.h"

namespace pfair {

namespace {
constexpr std::uint32_t kNoNode = 0xffffffff;
}  // namespace

RunSimulator::RunSimulator(RunConfig config) : config_(config) {
  assert(config_.processors >= 1);
  proc_owner_.assign(static_cast<std::size_t>(config_.processors), kNoNode);
  proc_used_.assign(static_cast<std::size_t>(config_.processors), 0);
}

bool RunSimulator::admit(const engine::TaskSpec& spec) {
  const auto reject = [this] {
    ++metrics_.tasks_rejected;
    return false;
  };
  if (built_ || !spec.valid()) return reject();
  const Time e = spec.execution;
  const Time p = spec.period;
  const std::int64_t new_lcm = saturating_lcm(ticks_, p);
  if (new_lcm > kMaxLcm) return reject();  // tick grid would overflow int64 math
  // Exact utilization check over the new common denominator: RUN's
  // reduction requires sum e/p <= M, so admission is capacity-checked
  // (unlike PD2, which accepts anything and lets misses surface).
  std::int64_t sum_num = checked_mul(e, new_lcm / p);
  for (const Task& t : tasks_.tasks()) sum_num += checked_mul(t.execution, new_lcm / t.period);
  if (sum_num > checked_mul(config_.processors, new_lcm))
    return reject();
  ticks_ = new_lcm;
  tasks_.add(make_task(e, p, TaskKind::kPeriodic, spec.name));
  ++metrics_.tasks_admitted;
  return true;
}

void RunSimulator::build_tree() {
  built_ = true;
  max_slot_ = std::numeric_limits<std::int64_t>::max() / ticks_;
  if (tasks_.empty()) return;

  // Leaves: one per task, plus at most one fractional idle leaf that
  // pads the effective processor count to an exact integral rate sum.
  std::int64_t sum_num = 0;
  Time max_period = 1;
  for (TaskId id = 0; id < tasks_.size(); ++id) {
    const Task& t = tasks_[id];
    Node leaf;
    leaf.kind = Node::Kind::kLeaf;
    leaf.task = id;
    leaf.period = t.period;
    leaf.rate_num = checked_mul(t.execution, ticks_ / t.period);
    leaf.job_work = checked_mul(t.execution, ticks_);
    sum_num += leaf.rate_num;
    max_period = std::max(max_period, t.period);
    leaves_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    nodes_.push_back(std::move(leaf));
  }
  const std::int64_t m_eff = ceil_div(sum_num, ticks_);
  assert(m_eff <= config_.processors);  // admit() enforced sum <= M
  const std::int64_t idle_num = checked_mul(m_eff, ticks_) - sum_num;
  if (idle_num > 0) {
    // Idle leaf period = the largest task period: its deadlines land on
    // instants that are already boundaries, so padding costs no events.
    Node idle;
    idle.kind = Node::Kind::kLeaf;
    idle.task = kNoTask;
    idle.period = max_period;
    idle.rate_num = idle_num;
    idle.job_work = checked_mul(idle_num, max_period);
    leaves_.push_back(static_cast<std::uint32_t>(nodes_.size()));
    nodes_.push_back(std::move(idle));
  }

  std::vector<Time> periods;
  for (const Task& t : tasks_.tasks()) periods.push_back(t.period);
  std::sort(periods.begin(), periods.end());
  periods.erase(std::unique(periods.begin(), periods.end()), periods.end());
  for (const Time p : periods) boundary_cursors_.push_back(PeriodCursor{p, 0});

  // Reduce: pack (FFD) -> unit packs become roots -> dual the rest.
  // A server holds its clients and its rate, at most ticks_ (rate 1).
  struct ServerPolicy {
    struct Bin {
      std::int64_t rate = 0;
      std::vector<std::uint32_t> clients;
    };
    const std::vector<Node>& nodes;
    const std::vector<std::uint32_t>& items;
    std::int64_t unit;

    [[nodiscard]] bool accepts(const Bin& b, std::size_t k) const {
      return b.rate + nodes[items[k]].rate_num <= unit;
    }
    void add(Bin& b, std::size_t k) const {
      b.rate += nodes[items[k]].rate_num;
      b.clients.push_back(items[k]);
    }
    [[nodiscard]] static double load(const Bin& b) noexcept {
      return static_cast<double>(b.rate);
    }
  };
  std::vector<std::uint32_t> items = leaves_;
  std::vector<std::size_t> order;
  while (!items.empty()) {
    assert(levels_ < 64);  // termination is guaranteed; this is a backstop
    std::sort(items.begin(), items.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (nodes_[a].rate_num != nodes_[b].rate_num)
        return nodes_[a].rate_num > nodes_[b].rate_num;
      return a < b;
    });
    order.resize(items.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    ServerPolicy policy{nodes_, items, ticks_};
    std::vector<ServerPolicy::Bin> bins =
        pack(order, Fit::kFirst, std::numeric_limits<int>::max(), policy).bins;
    items.clear();
    bool dualized = false;
    for (ServerPolicy::Bin& bin : bins) {
      Node pack;
      pack.kind = Node::Kind::kPack;
      pack.rate_num = bin.rate;
      pack.clients = std::move(bin.clients);
      std::sort(pack.clients.begin(), pack.clients.end());
      const std::uint32_t pack_idx = static_cast<std::uint32_t>(nodes_.size());
      for (const std::uint32_t c : pack.clients) nodes_[c].parent = pack_idx;
      nodes_.push_back(std::move(pack));
      if (bin.rate == ticks_) {
        roots_.push_back(pack_idx);
        continue;
      }
      // Each level's rates sum to an integer, so a lone non-unit pack
      // cannot exist — there is always a partner to keep reducing with.
      Node dual;
      dual.kind = Node::Kind::kDual;
      dual.primal = pack_idx;
      dual.rate_num = ticks_ - bin.rate;
      // The dual's deadline set is the union of leaf periods below it.
      periods.clear();
      for (const std::uint32_t c : nodes_[pack_idx].clients) {
        const Node& child = nodes_[c];
        if (child.kind == Node::Kind::kLeaf) {
          periods.push_back(child.period);
        } else {
          for (std::uint32_t k = child.cursors_begin; k < child.cursors_end; ++k)
            periods.push_back(dual_cursors_[k].period);
        }
      }
      std::sort(periods.begin(), periods.end());
      periods.erase(std::unique(periods.begin(), periods.end()), periods.end());
      dual.cursors_begin = static_cast<std::uint32_t>(dual_cursors_.size());
      for (const Time p : periods) dual_cursors_.push_back(PeriodCursor{p, 0});
      dual.cursors_end = static_cast<std::uint32_t>(dual_cursors_.size());
      const std::uint32_t dual_idx = static_cast<std::uint32_t>(nodes_.size());
      duals_.push_back(dual_idx);
      nodes_.push_back(std::move(dual));
      items.push_back(dual_idx);
      dualized = true;
    }
    if (dualized) ++levels_;
  }
  leaf_proc_.assign(nodes_.size(), kNoProc);

  // Initial marks: no client is picked yet, so every pack executes —
  // roots always, the others because their duals do not.
  exec_.assign(nodes_.size(), 0);
  dirty_.assign(nodes_.size(), 0);
  for (std::uint32_t idx = static_cast<std::uint32_t>(nodes_.size()); idx-- > 0;) {
    if (nodes_[idx].kind != Node::Kind::kPack) continue;
    exec_[idx] = 1;
    packs_desc_.push_back(idx);
  }
}

std::int64_t RunSimulator::tick_of(Time t) const noexcept {
  return t > max_slot_ ? std::numeric_limits<std::int64_t>::max() : t * ticks_;
}

void RunSimulator::process_boundary(Time t_real) {
  // Every multiple of every leaf period is a boundary, so each node's
  // cursor (its `deadline`) meets the boundaries that concern it exactly.
  for (const std::uint32_t idx : leaves_) {
    Node& leaf = nodes_[idx];
    if (leaf.deadline != t_real) continue;
    if (leaf.task != kNoTask) {
      if (leaf.work > 0) {
        // Predecessor job incomplete at its implicit deadline.  With
        // capacity-checked admission this is unreachable; counted
        // defensively so a scheduler bug cannot hide.
        metrics_.record_miss(t_real);
        obs::emit(bus_, obs::EventKind::kDeadlineMiss, t_real, leaf.task);
      }
      ++metrics_.jobs_released;
      obs::emit(bus_, obs::EventKind::kJobRelease, t_real, leaf.task, kNoProc,
                static_cast<double>(t_real + leaf.period));
    }
    leaf.work = leaf.job_work;
    leaf.release_tick = checked_mul(t_real, ticks_);
    leaf.deadline = t_real + leaf.period;
  }
  for (const std::uint32_t idx : duals_) {
    Node& dual = nodes_[idx];
    if (dual.deadline != t_real) continue;  // not a deadline of this subtree: budget carries on
    Time next = std::numeric_limits<Time>::max();
    for (std::uint32_t k = dual.cursors_begin; k < dual.cursors_end; ++k) {
      PeriodCursor& c = dual_cursors_[k];
      if (c.next == t_real) c.next += c.period;
      next = std::min(next, c.next);
    }
    dual.deadline = next;
    dual.budget = checked_mul(dual.rate_num, next - t_real);
  }
  Time next = std::numeric_limits<Time>::max();
  for (PeriodCursor& c : boundary_cursors_) {
    if (c.next == t_real) c.next += c.period;
    next = std::min(next, c.next);
  }
  pending_boundary_ = next;
  boundary_tick_ = tick_of(next);
  // Deadlines, work and budgets may all have moved: re-pick every pack.
  for (const std::uint32_t idx : packs_desc_) mark_dirty(idx);
}

bool RunSimulator::select() {
  ++metrics_.scheduling_points;
  emit_now(obs::EventKind::kSchedInvoke);
  reselect_ = false;
  started_.clear();
  stopped_.clear();
  // Parent-first: a pack's parent and its dual both have higher indices,
  // so every mark that feeds a pack is final before the pack is visited.
  for (const std::uint32_t idx : packs_desc_) {
    if (dirty_[idx] == 0) continue;
    dirty_[idx] = 0;
    const Node& pack = nodes_[idx];
    std::uint32_t pick = kNoNode;
    if (exec_[idx] != 0) {
      for (const std::uint32_t c : pack.clients) {
        const Node& cand = nodes_[c];
        const bool available = cand.kind == Node::Kind::kLeaf ? cand.work > 0
                                                              : cand.budget > 0;
        if (!available) continue;
        if (pick == kNoNode || cand.deadline < nodes_[pick].deadline) pick = c;
      }
    }
    for (const std::uint32_t c : pack.clients) {
      const std::uint8_t sel = c == pick ? 1 : 0;
      if (exec_[c] == sel) continue;
      exec_[c] = sel;
      const Node& child = nodes_[c];
      if (child.kind == Node::Kind::kDual) {
        // The inversion at the heart of RUN: a primal pack executes
        // exactly when its dual does not — unconditionally, so an idle
        // parent pack (sel = 0 for all dual clients) turns every primal
        // below ON.
        exec_[child.primal] = sel ^ 1;
        dirty_[child.primal] = 1;
      } else {
        (sel != 0 ? started_ : stopped_).push_back(c);
      }
    }
  }
  if (started_.empty() && stopped_.empty()) return false;
  // Each leaf flips at most once per pass (only its pack sets it).
  std::sort(started_.begin(), started_.end());
  std::sort(stopped_.begin(), stopped_.end());
  // Branch-free: which leaves execute changes at nearly every event.
  executing_leaves_.resize(leaves_.size());
  std::size_t count = 0;
  for (const std::uint32_t idx : leaves_) {
    executing_leaves_[count] = idx;
    count += exec_[idx];
  }
  executing_leaves_.resize(count);
  // The RUN theorem bounds the executing set by M; a bookkeeping bug
  // must not write past the processor arrays, in any build.
  if (count > static_cast<std::size_t>(config_.processors))
    throw std::logic_error("RunSimulator: more leaves executing than processors");
  return true;
}

void RunSimulator::assign_processors() {
  const std::size_t m = static_cast<std::size_t>(config_.processors);
  // A leaf that keeps executing keeps its processor: it owns it, and no
  // other leaf may take a processor whose owner still executes.  Only
  // the leaves that started or stopped at this event need work.
  const auto held = [&](std::size_t p) {
    return proc_owner_[p] != kNoNode && exec_[proc_owner_[p]] != 0;
  };
  // Pass 1: a started leaf takes back its previous processor when no
  // lower started leaf already claimed it and its owner stopped
  // (affinity minimises migrations).
  std::fill(proc_used_.begin(), proc_used_.end(), 0);
  unplaced_.clear();
  for (const std::uint32_t idx : started_) {
    const ProcId p = leaf_proc_[idx];
    if (p != kNoProc && proc_used_[p] == 0 &&
        (proc_owner_[p] == idx || proc_owner_[p] == kNoNode ||
         exec_[proc_owner_[p]] == 0)) {
      proc_used_[p] = 1;
    } else {
      unplaced_.push_back(idx);
    }
  }
  // Pass 2: remaining leaves take the lowest free processor, id order.
  std::size_t next_free = 0;
  for (const std::uint32_t idx : unplaced_) {
    while (next_free < m && (proc_used_[next_free] != 0 || held(next_free))) ++next_free;
    assert(next_free < m);
    const ProcId p = static_cast<ProcId>(next_free);
    proc_used_[p] = 1;
    const Node& leaf = nodes_[idx];
    if (leaf.task != kNoTask) {
      if (leaf_proc_[idx] != kNoProc && leaf_proc_[idx] != p) {
        ++metrics_.migrations;
        emit_now(obs::EventKind::kMigration, leaf.task, p,
                 static_cast<double>(leaf_proc_[idx]));
      }
    }
    leaf_proc_[idx] = p;
  }
  // Preemptions (Sec.-4 rule): was executing, no longer is, job unfinished.
  for (const std::uint32_t idx : stopped_) {
    const Node& leaf = nodes_[idx];
    if (leaf.work > 0 && leaf.task != kNoTask) {
      ++metrics_.preemptions;
      emit_now(obs::EventKind::kPreemption, leaf.task, kNoProc, -1.0);
    }
  }
  // Context switches: the processor's occupant changed.
  for (const std::uint32_t idx : started_) {
    const ProcId p = leaf_proc_[idx];
    if (proc_owner_[p] != idx) {
      if (nodes_[idx].task != kNoTask) {
        ++metrics_.context_switches;
        emit_now(obs::EventKind::kContextSwitch, nodes_[idx].task, p);
        emit_now(obs::EventKind::kDispatch, nodes_[idx].task, p, -1.0);
      }
      proc_owner_[p] = idx;
    }
  }
  // A stopped leaf's processor is free unless a started leaf took it.
  for (const std::uint32_t idx : stopped_)
    if (proc_owner_[leaf_proc_[idx]] == idx) proc_owner_[leaf_proc_[idx]] = kNoNode;
}

Time RunSimulator::now() const noexcept {
  return static_cast<Time>(now_tick_ / ticks_);
}

void RunSimulator::run_until(Time until) {
  if (!built_) build_tree();
  // A slot whose tick would pass INT64_MAX is out of reach: run to the
  // last one that fits, so now() reports where the run stopped.
  const std::int64_t until_tick = tick_of(std::clamp<Time>(until, 0, max_slot_));
  if (leaves_.empty()) {
    now_tick_ = std::max(now_tick_, until_tick);
  } else {
    while (now_tick_ < until_tick) {
      if (now_tick_ == boundary_tick_) process_boundary(pending_boundary_);
      if (reselect_ && select()) assign_processors();

      // The marks hold until the next boundary, the next completion of
      // an executing leaf, or the exhaustion of an executing dual.
      std::int64_t delta = std::min(until_tick, boundary_tick_) - now_tick_;
      for (const std::uint32_t idx : executing_leaves_)
        delta = std::min(delta, nodes_[idx].work);
      for (const std::uint32_t idx : duals_)
        delta = std::min(delta, exec_[idx] != 0 ? nodes_[idx].budget : delta);
      assert(delta > 0);

      const std::int64_t start = now_tick_;
      now_tick_ += delta;
      for (const std::uint32_t idx : executing_leaves_) {
        Node& leaf = nodes_[idx];
        leaf.work -= delta;
        if (leaf.work == 0) mark_dirty(leaf.parent);
        if (leaf.task == kNoTask) continue;
        busy_ticks_ += delta;
        if (config_.record_segments) {
          if (!segments_.empty() && segments_.back().task == leaf.task &&
              segments_.back().end == start) {
            segments_.back().end = now_tick_;  // contiguous: extend in place
          } else {
            segments_.push_back(RunSegment{leaf.task, start, now_tick_});
          }
        }
        if (leaf.work == 0) {
          ++metrics_.jobs_completed;
          const double response = static_cast<double>(now_tick_ - leaf.release_tick) /
                                   static_cast<double>(ticks_);
          metrics_.response_time.add(response);
          emit_now(obs::EventKind::kJobComplete, leaf.task, leaf_proc_[idx], response);
        }
      }
      for (const std::uint32_t idx : duals_) {
        if (exec_[idx] == 0) continue;
        Node& dual = nodes_[idx];
        dual.budget -= delta;
        if (dual.budget == 0) mark_dirty(dual.parent);
      }
    }
  }
  metrics_.slots = static_cast<std::uint64_t>(now_tick_ / ticks_);
  metrics_.busy_quanta = static_cast<std::uint64_t>(busy_ticks_ / ticks_);
  metrics_.idle_quanta =
      metrics_.slots * static_cast<std::uint64_t>(config_.processors) -
      metrics_.busy_quanta;
}

RunVerifyResult verify_run_segments(const std::vector<RunSegment>& segments,
                                    const TaskSet& tasks,
                                    std::int64_t ticks_per_slot, Time horizon,
                                    int processors) {
  RunVerifyResult res;
  const std::size_t n = tasks.size();
  std::vector<std::vector<const RunSegment*>> per_task(n);
  for (const RunSegment& s : segments) {
    if (s.task >= n) {
      std::ostringstream os;
      os << "unknown task id " << s.task << " in segment log";
      res.fail(os.str());
      continue;
    }
    if (s.start >= s.end) {
      std::ostringstream os;
      os << "empty/reversed segment [" << s.start << ", " << s.end
         << ") for task " << s.task;
      res.fail(os.str());
      continue;
    }
    per_task[s.task].push_back(&s);
  }

  // Per-job exactness: every window [k*p, (k+1)*p) fully inside the
  // horizon must contain exactly e * ticks of service.
  for (TaskId id = 0; id < n; ++id) {
    auto& segs = per_task[id];
    std::sort(segs.begin(), segs.end(),
              [](const RunSegment* a, const RunSegment* b) {
                return a->start < b->start;
              });
    std::int64_t prev_end = 0;
    for (const RunSegment* s : segs) {
      if (s->start < prev_end) {
        std::ostringstream os;
        os << "overlapping segments for task " << id << " at tick " << s->start;
        res.fail(os.str());
      }
      prev_end = s->end;
    }
    const Task& t = tasks[id];
    const std::int64_t window = t.period * ticks_per_slot;
    const std::int64_t want = t.execution * ticks_per_slot;
    const std::int64_t jobs = horizon / t.period;  // complete windows only
    std::vector<std::int64_t> service(static_cast<std::size_t>(jobs), 0);
    for (const RunSegment* s : segs) {
      std::int64_t lo = s->start;
      while (lo < s->end) {
        const std::int64_t k = lo / window;
        const std::int64_t hi = std::min(s->end, (k + 1) * window);
        if (k < jobs) service[static_cast<std::size_t>(k)] += hi - lo;
        lo = hi;
      }
    }
    for (std::int64_t k = 0; k < jobs; ++k) {
      if (service[static_cast<std::size_t>(k)] != want) {
        std::ostringstream os;
        os << "task " << id << " job " << k << " received "
           << service[static_cast<std::size_t>(k)] << " ticks in window ["
           << k * window << ", " << (k + 1) * window << "), expected " << want;
        res.fail(os.str());
      }
    }
  }

  // Global parallelism <= processors at every instant.
  std::vector<std::pair<std::int64_t, int>> edges;
  edges.reserve(segments.size() * 2);
  for (const RunSegment& s : segments) {
    if (s.task >= n || s.start >= s.end) continue;
    edges.emplace_back(s.start, +1);
    edges.emplace_back(s.end, -1);
  }
  std::sort(edges.begin(), edges.end());
  int active = 0;
  for (const auto& [tick, delta] : edges) {
    active += delta;
    if (active > processors) {
      std::ostringstream os;
      os << "parallelism " << active << " > " << processors << " processors at tick "
         << tick;
      res.fail(os.str());
      break;
    }
  }
  return res;
}

}  // namespace pfair
