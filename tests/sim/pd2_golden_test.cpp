// Golden schedules for the Pfair simulator: one FNV-1a digest per seeded
// case of the metrics row (response-time stats included), the per-task
// counters, the answers of the dynamic calls, the ScheduleTrace and the
// JSONL event stream.  The table was recorded before the slot kernel's
// ready queue was rebuilt around task ids, and pins every byte that
// rewrite must keep: a changed tie, processor assignment, preemption
// count or event order moves a digest.
//
// Each case runs twice.  The first run has no observer, so the idle
// fast-forward may jump; it yields the metrics row, the trace and the
// answers.  The second attaches a JSONL sink (per-slot kernel, lag
// checks and periodic lag samples on) and yields the event stream.
//
// The corpus crosses M in {1, 2, 4, 8, 16} and PD2, PD, PF and EPDF with
// twelve scenarios: periodic light, heavy and weight-mixed sets (the mix
// includes weight-1 tasks), ERfair and intra-sporadic sets, overloads
// that miss under both miss policies, an unbound and a bound supertask,
// processor fail and repair events, and dynamic scripts of joins,
// request_leave and request_reweight calls between several run_until
// calls.  Periods stay at most 60, so no window product overflows.
// Inputs come from a local splitmix64 stream, so the corpus never moves
// with util::Rng.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <ostream>
#include <streambuf>
#include <vector>

#include "core/supertask.h"
#include "obs/bus.h"
#include "obs/jsonl_sink.h"
#include "sim/pfair_sim.h"

namespace pfair {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  }
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(static_cast<std::uint64_t>(v) >> (8 * i)));
  }
  void add(double v) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

/// Hashes what a JsonlSink writes instead of keeping it.
class FnvStreamBuf : public std::streambuf {
 public:
  Fnv fnv;

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) fnv.byte(static_cast<unsigned char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) fnv.byte(static_cast<unsigned char>(s[i]));
    return n;
  }
};

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::int64_t below(std::int64_t n) { return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n)); }
};

enum class Mix : std::uint8_t { kLight, kHeavy, kMixed };

enum class Scenario : std::uint8_t {
  kPeriodicLight,
  kPeriodicHeavy,
  kPeriodicMixed,
  kErfair,
  kIntraSporadic,
  kOverloadLate,
  kOverloadDrop,
  kSupertask,
  kBoundSupertask,
  kProcessorFaults,
  kDynamic,
  kDynamicErfairDrop,
};

constexpr Scenario kScenarios[] = {
    Scenario::kPeriodicLight,  Scenario::kPeriodicHeavy, Scenario::kPeriodicMixed,
    Scenario::kErfair,         Scenario::kIntraSporadic, Scenario::kOverloadLate,
    Scenario::kOverloadDrop,   Scenario::kSupertask,     Scenario::kBoundSupertask,
    Scenario::kProcessorFaults, Scenario::kDynamic,      Scenario::kDynamicErfairDrop,
};
constexpr int kProcessors[] = {1, 2, 4, 8, 16};
constexpr Algorithm kAlgorithms[] = {Algorithm::kPD2, Algorithm::kPD, Algorithm::kPF,
                                     Algorithm::kEPDF};
constexpr std::int64_t kPeriods[] = {2,  3,  4,  5,  6,  7,  8,  9,  10, 12, 14, 15,
                                     16, 18, 20, 21, 24, 28, 30, 36, 40, 42, 48, 60};
constexpr Time kHorizon = 360;

struct Shape {
  TaskKind kind = TaskKind::kPeriodic;
  MissPolicy policy = MissPolicy::kScheduleLate;
  Mix mix = Mix::kMixed;
  double load = 0.9;
  int supertask = 0;  ///< 0 none, 1 unbound, 2 bound to processor 0
  bool faults = false;
  bool dynamic = false;
};

Shape shape_of(Scenario s) {
  Shape sh;
  switch (s) {
    case Scenario::kPeriodicLight: sh.mix = Mix::kLight; sh.load = 0.4; break;
    case Scenario::kPeriodicHeavy: sh.mix = Mix::kHeavy; sh.load = 1.0; break;
    case Scenario::kPeriodicMixed: sh.load = 1.0; break;
    case Scenario::kErfair: sh.kind = TaskKind::kEarlyRelease; sh.load = 0.8; break;
    case Scenario::kIntraSporadic: sh.kind = TaskKind::kIntraSporadic; break;
    case Scenario::kOverloadLate: sh.mix = Mix::kHeavy; sh.load = 1.3; break;
    case Scenario::kOverloadDrop: sh.policy = MissPolicy::kDrop; sh.load = 1.3; break;
    case Scenario::kSupertask: sh.mix = Mix::kLight; sh.load = 0.7; sh.supertask = 1; break;
    case Scenario::kBoundSupertask: sh.load = 0.7; sh.supertask = 2; break;
    case Scenario::kProcessorFaults: sh.faults = true; break;
    case Scenario::kDynamic: sh.load = 0.6; sh.dynamic = true; break;
    case Scenario::kDynamicErfairDrop:
      sh.kind = TaskKind::kEarlyRelease;
      sh.policy = MissPolicy::kDrop;
      sh.load = 1.1;
      sh.dynamic = true;
      break;
  }
  return sh;
}

struct GoldenCase {
  int m;
  Algorithm alg;
  Scenario scenario;
};

std::vector<GoldenCase> corpus() {
  std::vector<GoldenCase> out;
  for (const Scenario s : kScenarios)
    for (const int m : kProcessors)
      for (const Algorithm alg : kAlgorithms) out.push_back({m, alg, s});
  return out;
}

Task random_task(SplitMix& rng, Mix mix, TaskKind kind) {
  const std::int64_t p = kPeriods[rng.below(static_cast<std::int64_t>(std::size(kPeriods)))];
  std::int64_t e = 1;
  switch (mix) {
    case Mix::kLight: e = 1 + rng.below(std::max<std::int64_t>(1, p / 4)); break;
    case Mix::kHeavy: e = (p + 1) / 2 + rng.below(p - (p + 1) / 2 + 1); break;
    case Mix::kMixed: e = rng.below(5) == 0 ? p : 1 + rng.below(p); break;
  }
  return make_task(e, p, kind);
}

/// One dynamic call at slot `at` (kind 0 join, 1 request_leave,
/// 2 request_reweight), or a bare run_until split (kind 3).
struct Op {
  Time at = 0;
  int kind = 3;
  Task task;
  TaskId id = 0;
};

struct Script {
  std::vector<Task> tasks;
  std::vector<std::vector<Time>> arrivals;
  std::optional<SupertaskSpec> super;
  ProcId bound = kNoProc;
  std::vector<ProcessorEvent> events;
  std::vector<Op> ops;  ///< ascending `at`
};

Script make_script(const GoldenCase& c, std::uint64_t seed) {
  const Shape sh = shape_of(c.scenario);
  SplitMix rng{seed};
  Script s;
  const auto cap = static_cast<std::int64_t>(sh.load * 1000.0 * c.m);
  std::int64_t total = 0;
  if (sh.supertask != 0) {
    std::vector<Task> comps;
    const std::int64_t n = 2 + rng.below(2);
    for (std::int64_t k = 0; k < n; ++k) {
      const std::int64_t p = 6 + 6 * rng.below(6);
      comps.push_back(make_task(1 + rng.below(2), p));
    }
    s.super = make_reweighted_supertask(std::move(comps), "S");
    if (sh.supertask == 2) s.bound = 0;
    total += s.super->execution * 1000 / s.super->period;
  }
  for (int misses = 0; misses < 16;) {
    const Task t = random_task(rng, sh.mix, sh.kind);
    const std::int64_t w = t.execution * 1000 / t.period;
    if (total + w > cap) {
      ++misses;
      continue;
    }
    total += w;
    s.tasks.push_back(t);
    std::vector<Time> arr;
    if (sh.kind == TaskKind::kIntraSporadic) {
      // Early, on-time and late arrivals for the first jobs; the late
      // ones shift the rest of the task's window chain.
      Time shift = 0;
      for (SubtaskIndex i = 1; i <= 3 * t.execution; ++i) {
        const std::int64_t r = rng.below(6);
        if (r == 0) shift += 1 + rng.below(3);
        const Time release = subtask_release(t.execution, t.period, i) + shift;
        arr.push_back(r == 1 ? std::max<Time>(0, release - 1) : release);
      }
    }
    s.arrivals.push_back(std::move(arr));
  }
  if (sh.faults) {
    s.events.push_back({97, c.m == 1 ? 0 : c.m / 2});
    s.events.push_back({c.m == 1 ? 131 : 211, c.m});
  }
  if (sh.dynamic) {
    const auto n0 = static_cast<TaskId>(s.tasks.size() + (s.super ? 1 : 0));
    TaskId issued = n0;
    for (Time at = 40; at < kHorizon; at += 40 + rng.below(17)) {
      const std::int64_t k = rng.below(4);
      Op op;
      op.at = at;
      op.kind = static_cast<int>(k);
      if (k == 0) {
        op.task = random_task(rng, Mix::kMixed, sh.kind);
        ++issued;  // a refused join issues no id; ids above stay unknown
      } else if (k == 1 || k == 2) {
        op.id = static_cast<TaskId>(rng.below(static_cast<std::int64_t>(issued)));
        op.task = random_task(rng, Mix::kMixed, sh.kind);
      }
      s.ops.push_back(op);
      if (rng.below(2) == 0) s.ops.push_back(Op{at + 1 + rng.below(13), 3, {}, 0});
    }
  }
  return s;
}

/// Plays `s` on `sim` up to the horizon; the dynamic calls' answers go
/// to `answers`.
void play(const Script& s, PfairSimulator& sim, Fnv& answers) {
  if (s.super) sim.add_supertask(*s.super, s.bound);
  for (std::size_t k = 0; k < s.tasks.size(); ++k) sim.add_task(s.tasks[k], s.arrivals[k]);
  for (const ProcessorEvent& ev : s.events) sim.add_processor_event(ev);
  for (const Op& op : s.ops) {
    sim.run_until(op.at);
    switch (op.kind) {
      case 0: {
        const std::optional<TaskId> id = sim.join(op.task);
        answers.add(id ? static_cast<std::int64_t>(*id) : -1);
        break;
      }
      case 1: {
        const std::optional<Time> at = sim.request_leave(op.id);
        answers.add(at ? *at : -1);
        break;
      }
      case 2: {
        const std::optional<Time> at =
            sim.request_reweight(op.id, op.task.execution, op.task.period);
        answers.add(at ? *at : -1);
        break;
      }
      default:
        break;
    }
  }
  sim.run_until(kHorizon);
}

void add_row(Fnv& d, const engine::Metrics& r) {
  for (const std::uint64_t v :
       {r.tasks_admitted, r.tasks_rejected, r.slots, r.busy_quanta, r.idle_quanta,
        r.fast_forwarded_slots, r.jobs_released, r.jobs_completed, r.deadline_misses,
        r.component_misses, r.preemptions, r.migrations, r.context_switches,
        r.component_switches, r.scheduling_points, r.scheduling_points, r.lag_violations})
    d.add(static_cast<std::int64_t>(v));
  d.add(static_cast<std::int64_t>(r.first_miss_time));
  d.add(static_cast<std::int64_t>(r.response_time.count()));
  d.add(r.response_time.mean());
  d.add(r.response_time.min());
  d.add(r.response_time.max());
}

PfairConfig config_of(const GoldenCase& c) {
  PfairConfig cfg;
  cfg.processors = c.m;
  cfg.algorithm = c.alg;
  cfg.miss_policy = shape_of(c.scenario).policy;
  return cfg;
}

/// Digest of one case: answers, metrics row, per-task counters and the
/// schedule of the unobserved run, then the observed run's event stream.
std::uint64_t digest(const GoldenCase& c, std::uint64_t seed) {
  const Script s = make_script(c, seed);
  Fnv d;
  {
    PfairConfig cfg = config_of(c);
    cfg.record_trace = true;
    PfairSimulator sim(cfg);
    play(s, sim, d);
    add_row(d, sim.metrics());
    for (TaskId id = 0; id < sim.task_names().size(); ++id) {
      d.add(sim.allocated(id));
      d.add(sim.max_job_preemptions(id));
      d.add(sim.earliest_leave(id));
    }
    if (s.super) {
      for (std::size_t k = 0; k < s.super->components.size(); ++k)
        d.add(static_cast<std::int64_t>(sim.component_miss_count(0, k)));
    }
    for (std::size_t t = 0; t < sim.trace().size(); ++t)
      for (const TaskId id : sim.trace()[t].proc_to_task) d.add(static_cast<std::int64_t>(id));
  }
  {
    FnvStreamBuf events;
    std::ostream os(&events);
    obs::JsonlSink sink(os);
    obs::EventBus bus;
    bus.add_sink(&sink);
    PfairConfig cfg = config_of(c);
    cfg.check_lags = true;
    cfg.lag_sample_every = 60;
    PfairSimulator sim(cfg);
    sim.attach_observer(&bus);
    Fnv ignored;
    play(s, sim, ignored);
    bus.flush();
    d.add(static_cast<std::int64_t>(events.fnv.h));
  }
  return d.h;
}

std::uint64_t case_seed(std::size_t i) { return 0x9d2601dull * 1000003ull + i; }

// Recorded from the simulator as it was before the task-keyed ready
// queue, in corpus() order (scenario, then M, then algorithm).
constexpr std::uint64_t kGolden[] = {
    0x531938031ce61692ull, 0x03b22a6f7254197dull, 0xa6344d189d94da9cull,
    0x4a31ef73f060255bull, 0xa48df3c0fc5ce104ull, 0xa0fb165b35af2d84ull,
    0x566b17e800cd2000ull, 0x9a8b3976d389d642ull, 0xa4f07aa64a27c4b6ull,
    0xd05b1b2e69c5726dull, 0xc0fd7fae6c7f0848ull, 0x7ca1d56fdb6ec91full,
    0xe100b7fcb1feb0a8ull, 0x741a8727f276b903ull, 0x44f2db4aa190654eull,
    0x2311f6cda2f4d33bull, 0xe3c0f50ed17357f2ull, 0x78e2e5eb679a5bc3ull,
    0x14436aaaff138e89ull, 0x7ff6d94fce1a04e8ull, 0x0e4b820526816fb5ull,
    0x59c6a942c818143eull, 0xa13e84aff67630bdull, 0x35a6fa22f589c403ull,
    0x949d319b3eac6e11ull, 0xf827704266103a48ull, 0xcd66a19a3e3b7440ull,
    0x96db1fa9635ca59bull, 0xf6b510a5faee2e57ull, 0x24c8eec7c2962c4bull,
    0xaf68fb2c9eec85b4ull, 0xfd795d357a632ee3ull, 0xec80dd51964fdcc5ull,
    0x116799e268c48b53ull, 0x1dbbeb55741fe01aull, 0x0d724f4b1a10ab79ull,
    0xfbcd9970a002c714ull, 0x243decb384dfc156ull, 0xe6cd68e30db058c7ull,
    0xf38d15b1a4fc1b16ull, 0x4e77c52c019820e0ull, 0x63b1d33d58e84c15ull,
    0x5eaa88b2ab3d8c79ull, 0x3c7b83eda92a9c3aull, 0x740f8e6328e8a1eeull,
    0x1989aecc3373d2c0ull, 0x5addeabade231a08ull, 0x1c20d5fc9d124603ull,
    0x70bb34b57887448aull, 0x7822694fd79407d8ull, 0x8a6b99b34254392cull,
    0x0d8571a1b2976467ull, 0x8f08ae62a16b2692ull, 0x99837c1ad14aacceull,
    0x9957649099260e5aull, 0x4bb0dc1f1cf6d6ebull, 0x4c0acbe7f9091b94ull,
    0xb3e283e3257fed14ull, 0x2f92071bf45698d3ull, 0xed2402ed4d87a463ull,
    0xf676e5d52e41dac7ull, 0x89c51f1c7a872850ull, 0xeea3a776d56cd1b7ull,
    0x75055029637ffd5cull, 0xa54c957d5a05b120ull, 0x1d5a88745ba03a14ull,
    0x69a36a2816f470eeull, 0x347e9967aa2bec4eull, 0x5b7eb89f15ae76e5ull,
    0x0a60257a889b64ddull, 0xc7c7bfad1858aa87ull, 0x00e113264a718d7eull,
    0xcee93a7f38a8a511ull, 0xf8a8c6c998cccf65ull, 0xa5bd3dc7f1ffbb82ull,
    0x932fcc3c31020543ull, 0xbca26d93130ce5f0ull, 0x1e06491ad4257830ull,
    0x59847bd4829deeb4ull, 0xd622498ece69469cull, 0x98828ecc33f8d48eull,
    0x4107ffee778be14eull, 0x11d3c97ee651566aull, 0x32553136d6ccbc51ull,
    0x5157d8d3467d8b0cull, 0xa4068033154cacc5ull, 0x3e0ee021b8cb4c8full,
    0x51096b7967a12221ull, 0xe76602d30368a3a9ull, 0x8fc2fcc5c95385d9ull,
    0xa0cc1df749ca493cull, 0xa076520e3fdeb813ull, 0x99050b83bf077030ull,
    0xc3cb2374e817fe42ull, 0x65508d8181b08f0bull, 0x82f63d5ddc8b015aull,
    0xf62ba54456c06357ull, 0x3c56f8a01b908573ull, 0x45ce3dc85e059651ull,
    0x9fc9fccc56d3b755ull, 0x7702c63ed461bd39ull, 0xe0e24c701da69256ull,
    0x2098a89a325e863bull, 0x7e968e6529d03a81ull, 0x71867d24162e5782ull,
    0xc202b1f31680a4ecull, 0xae4a51b90f509550ull, 0xed6982bc15163eabull,
    0x0c836cce44b0196dull, 0x3281080d49e75676ull, 0xd303b002390e61acull,
    0xf368b8b30c90d4feull, 0x075969cd0347e615ull, 0xac31f47b451245eeull,
    0x9a7461e48b0aeffeull, 0x8e1440bd8c307d66ull, 0x650095362437e700ull,
    0x5cacb6d3894b4ba8ull, 0xe86af69368723da7ull, 0x7fb7db55a15f8debull,
    0xfd893c4af0629a19ull, 0x4d8d68f9f3bc3172ull, 0x00175d8c9395627dull,
    0x9276baaefca9ebb6ull, 0x874f08b47a7c5afdull, 0x039defe1748cee9bull,
    0x161c53e429a590daull, 0xa8a75271efabb39full, 0x3851305396aa92c1ull,
    0x1c92041bf84881deull, 0x332f996a0d6bf107ull, 0xf6338eab7d3ef04full,
    0x878e99f91a5f5c81ull, 0x783c938267984621ull, 0x53c5c60ceb06ab97ull,
    0xb5a217da52179a43ull, 0xdb0e6dd32bbdd852ull, 0xe29c01620bb3a677ull,
    0x036b63a4d3169344ull, 0x92473b9d639cc3c3ull, 0x4c4300d99ad3ec1full,
    0x9b8c87fc702540c9ull, 0xa9814d9a9d7b7463ull, 0xc543304d1eff606cull,
    0x9955222d7310e2aeull, 0xe944af0b3fa2741bull, 0x35b6caf0d2aa982cull,
    0x7504930f01776599ull, 0x15c378d862f6c0f2ull, 0xd923e845256d96f0ull,
    0x77f2aab86093ac28ull, 0x19ad0e9a0df1996eull, 0x23134368012a1cf3ull,
    0xb7347cd4c8ea76b5ull, 0xb1298fb346511a1eull, 0xe9e744da45cfaa7cull,
    0xe34ce759bc029f74ull, 0x9f5500e52bf9ffa7ull, 0xf0d0786204b0f7bbull,
    0x46b370723e6fc4c2ull, 0x13a3493eb89fc962ull, 0x132d453979673d7full,
    0x042a17aeb687ec64ull, 0x1ea0db50396898deull, 0x679c158819705740ull,
    0x574b9cc559a4e767ull, 0xf5a0ac385b63abe4ull, 0x905a9ba3927160f7ull,
    0xd1836cd4a0eb5ab3ull, 0x9aff447dcd4ddd3aull, 0x54558941dac94257ull,
    0x3b6ee0fcbd59b2bbull, 0xd75229717f3baad3ull, 0xc32dc967b7c710baull,
    0x22084989b697807bull, 0x5580e264862817d1ull, 0xda0b6875b1600cd0ull,
    0x7a8ecc41b5901fb6ull, 0x3d20b4c88aa07518ull, 0xcc915eafc70a459aull,
    0xd1cdfb8f2d691778ull, 0xcee66f751eaffde9ull, 0xa47a9912e14dca29ull,
    0xccfa818ec7eead59ull, 0x2b76e266d072047eull, 0xe7850bbaf9d49b7eull,
    0xe0887eaf079e714eull, 0xb8eb6a4cbcd9a1daull, 0xec7af00a7682738dull,
    0x7c82724cabbb3bb7ull, 0x25d24ee8f14fa47cull, 0x3bd9636d216458baull,
    0x79dfe7a6b6af61bfull, 0x3f0cb867338a00afull, 0x7aa1d3fc3aa45258ull,
    0xc03fe7c9fa10db54ull, 0xbc106a157a92b4c6ull, 0xe61460f1140aadb9ull,
    0xdc5001de750692c6ull, 0xf15e93773bcd8082ull, 0xc63c32b49c372f23ull,
    0xc5cb8346e751d094ull, 0x6245e004d4a96ac2ull, 0xc9e299dbd8d97abcull,
    0x233c33e2efe19812ull, 0xd02ae17833049005ull, 0x6b0844f93cc6d0a2ull,
    0x60dd31a21ff7ffd7ull, 0xfd281e60ecd2d638ull, 0x853e6ec8951ed762ull,
    0x237d4a16664c186aull, 0x0da8d01fc85f8066ull, 0xce3737dcb621749full,
    0x43fb941aa2aad01eull, 0x880472bdc95c1fd7ull, 0xceb73621b0ba881eull,
    0x513a1e0fcfdb8d1bull, 0xb4e6591bb228c436ull, 0xc4b3a9e2344872d7ull,
    0x4a7cf3a8c78944aeull, 0xd7429bff37eadd77ull, 0xb13f5189c73969beull,
    0x3be96b5fbbffb9bfull, 0xe0353042e8cd30cfull, 0x690142823ad295dfull,
    0x749e3bbad59c228cull, 0x722b5c673d986891ull, 0x997fd7bb04099bcbull,
    0xbc7cbf3ba6650ee5ull, 0x5cf81573efe1cc22ull, 0xb9dba664f4e2caefull,
    0xf9fafbe4959515b3ull, 0x7f731f6c1cc49df6ull, 0x4eb30fe7d1d4e3daull,
    0x16365b706342c432ull, 0x83e413ffe41ae688ull, 0x8afa38f03beb96b7ull,
    0xc10c77feab3d8f8aull, 0x30dd8f9765e61e63ull, 0xd0137bd39c302dfbull,
};

TEST(Pd2Golden, SchedulesMatchTheRecordedTable) {
  const std::vector<GoldenCase> cases = corpus();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  std::size_t bad = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const std::uint64_t got = digest(c, case_seed(i));
    if (got == kGolden[i]) continue;
    ++bad;
    ADD_FAILURE() << "case " << i << " (scenario " << static_cast<int>(c.scenario)
                  << ", m=" << c.m << ", " << algorithm_name(c.alg) << "): digest 0x"
                  << std::hex << got << " != recorded 0x" << kGolden[i];
  }
  EXPECT_EQ(bad, 0u);
}

/// The corpus reaches what it claims to: misses under both policies,
/// preemptions, migrations, fast-forwarded slots, supertask component
/// switches and answered dynamic calls.
TEST(Pd2Golden, CorpusReachesMissesFastForwardAndDynamics) {
  std::uint64_t late_misses = 0, drop_misses = 0, preemptions = 0, migrations = 0;
  std::uint64_t ff = 0, switches = 0, rejected = 0;
  std::size_t leaves = 0, reweights = 0;
  const std::vector<GoldenCase> cases = corpus();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const Script s = make_script(c, case_seed(i));
    for (const Op& op : s.ops) {
      leaves += op.kind == 1 ? 1u : 0u;
      reweights += op.kind == 2 ? 1u : 0u;
    }
    PfairSimulator sim(config_of(c));
    Fnv ignored;
    play(s, sim, ignored);
    const engine::Metrics& m = sim.metrics();
    (shape_of(c.scenario).policy == MissPolicy::kDrop ? drop_misses : late_misses) +=
        m.deadline_misses;
    preemptions += m.preemptions;
    migrations += m.migrations;
    ff += m.fast_forwarded_slots;
    switches += m.component_switches;
    rejected += m.tasks_rejected;
  }
  EXPECT_GT(late_misses, 0u);
  EXPECT_GT(drop_misses, 0u);
  EXPECT_GT(preemptions, 0u);
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(ff, 0u);
  EXPECT_GT(switches, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(leaves, 0u);
  EXPECT_GT(reweights, 0u);
}

}  // namespace
}  // namespace pfair
