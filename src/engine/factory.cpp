#include "engine/factory.h"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace pfair::engine {

namespace {

struct RegistryEntry {
  SchedulerKind kind;
  const char* name;
  std::unique_ptr<Simulator> (*make)(const SimulatorConfig&);
};

// The registry: one row per simulator stack.  Rows construct *empty*
// simulators — workloads arrive through Simulator::admit(), which every
// stack accepts before its first slot/event runs.
constexpr RegistryEntry kRegistry[] = {
    {SchedulerKind::kPfair, "pfair",
     [](const SimulatorConfig& c) -> std::unique_ptr<Simulator> {
       return std::make_unique<PfairSimulator>(c.pfair);
     }},
    {SchedulerKind::kPartitioned, "partitioned",
     [](const SimulatorConfig& c) -> std::unique_ptr<Simulator> {
       return std::make_unique<PartitionedSimulator>(std::vector<UniTask>{}, c.partitioned);
     }},
    {SchedulerKind::kGlobalJob, "global-job",
     [](const SimulatorConfig& c) -> std::unique_ptr<Simulator> {
       return std::make_unique<GlobalJobSimulator>(std::vector<UniTask>{}, c.global_job);
     }},
    {SchedulerKind::kUniproc, "uniproc",
     [](const SimulatorConfig& c) -> std::unique_ptr<Simulator> {
       return std::make_unique<UniprocSimulator>(std::vector<UniTask>{}, c.uniproc);
     }},
    {SchedulerKind::kWrr, "wrr",
     [](const SimulatorConfig& c) -> std::unique_ptr<Simulator> {
       return std::make_unique<WrrSimulator>(TaskSet{}, c.wrr);
     }},
    {SchedulerKind::kCbs, "cbs",
     [](const SimulatorConfig& c) -> std::unique_ptr<Simulator> {
       return std::make_unique<CbsSimulator>(std::vector<UniTask>{}, c.cbs);
     }},
    {SchedulerKind::kBf, "bf",
     [](const SimulatorConfig& c) -> std::unique_ptr<Simulator> {
       return std::make_unique<BfSimulator>(TaskSet{}, c.bf);
     }},
    {SchedulerKind::kRun, "run",
     [](const SimulatorConfig& c) -> std::unique_ptr<Simulator> {
       return std::make_unique<RunSimulator>(c.run);
     }},
};

const RegistryEntry& entry(SchedulerKind kind) noexcept {
  for (const RegistryEntry& e : kRegistry) {
    if (e.kind == kind) return e;
  }
  assert(false && "unregistered SchedulerKind");
  return kRegistry[0];
}

[[noreturn]] void reject(SchedulerKind kind, const char* field, long long got) {
  std::ostringstream os;
  os << "make_simulator(" << entry(kind).name << "): " << field << " must be >= 1 (got "
     << got << ")";
  throw std::invalid_argument(os.str());
}

// Rejects configs no stack can run on — the mistakes a kind-keyed sweep
// table makes silently (a zero in an unused column picked up by the
// wrong kind).  Checked here, once, instead of in six constructors.
void validate(SchedulerKind kind, const SimulatorConfig& c) {
  switch (kind) {
    case SchedulerKind::kPfair:
      if (c.pfair.processors < 1) reject(kind, "processors", c.pfair.processors);
      break;
    case SchedulerKind::kPartitioned:
      if (c.partitioned.max_processors < 1)
        reject(kind, "max_processors", c.partitioned.max_processors);
      break;
    case SchedulerKind::kGlobalJob:
      if (c.global_job.processors < 1) reject(kind, "processors", c.global_job.processors);
      break;
    case SchedulerKind::kUniproc:
      break;  // nothing configurable can be out of range
    case SchedulerKind::kWrr:
      if (c.wrr.processors < 1) reject(kind, "processors", c.wrr.processors);
      if (c.wrr.frame < 1) reject(kind, "frame", c.wrr.frame);
      break;
    case SchedulerKind::kCbs:
      for (std::size_t i = 0; i < c.cbs.servers.size(); ++i) {
        const CbsServerSpec& s = c.cbs.servers[i];
        if (s.budget < 1 || s.period < 1) {
          std::ostringstream os;
          os << "make_simulator(cbs): server " << i << " must have budget >= 1 and "
             << "period >= 1 (got Q=" << s.budget << ", T=" << s.period << ")";
          throw std::invalid_argument(os.str());
        }
      }
      break;
    case SchedulerKind::kBf:
      if (c.bf.processors < 1) reject(kind, "processors", c.bf.processors);
      break;
    case SchedulerKind::kRun:
      if (c.run.processors < 1) reject(kind, "processors", c.run.processors);
      break;
  }
}

}  // namespace

const char* to_string(SchedulerKind kind) noexcept { return entry(kind).name; }

std::optional<SchedulerKind> scheduler_kind_from_string(std::string_view name) noexcept {
  for (const RegistryEntry& e : kRegistry) {
    if (name == e.name) return e.kind;
  }
  return std::nullopt;
}

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kinds = [] {
    std::vector<SchedulerKind> out;
    for (const RegistryEntry& e : kRegistry) out.push_back(e.kind);
    return out;
  }();
  return kinds;
}

std::unique_ptr<Simulator> make_simulator(SchedulerKind kind, const SimulatorConfig& config) {
  validate(kind, config);
  return entry(kind).make(config);
}

}  // namespace pfair::engine
