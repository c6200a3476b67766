#include "qa/fuzz_case.h"

#include <sstream>
#include <utility>
#include <vector>

namespace pfair::qa {

namespace {

const char* kind_name(TaskKind k) noexcept {
  switch (k) {
    case TaskKind::kPeriodic:
      return "periodic";
    case TaskKind::kEarlyRelease:
      return "early-release";
    case TaskKind::kIntraSporadic:
      return "intra-sporadic";
  }
  return "?";
}

bool kind_from_name(const std::string& name, TaskKind& out) noexcept {
  for (const TaskKind k :
       {TaskKind::kPeriodic, TaskKind::kEarlyRelease, TaskKind::kIntraSporadic}) {
    if (name == kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

}  // namespace

const char* profile_name(Profile p) noexcept {
  switch (p) {
    case Profile::kUniform:
      return "uniform";
    case Profile::kBimodal:
      return "bimodal";
    case Profile::kHeavy:
      return "heavy";
    case Profile::kHarmonic:
      return "harmonic";
    case Profile::kDegenerate:
      return "degenerate";
    case Profile::kDynamic:
      return "dynamic";
    case Profile::kStorm:
      return "storm";
  }
  return "?";
}

const std::vector<Profile>& all_profiles() {
  static const std::vector<Profile> profiles = {
      Profile::kUniform,   Profile::kBimodal,    Profile::kHeavy,  Profile::kHarmonic,
      Profile::kDegenerate, Profile::kDynamic,   Profile::kStorm,
  };
  return profiles;
}

std::string validate(const FuzzCase& c) {
  std::ostringstream os;
  if (c.tasks.empty()) return "case has no tasks";
  if (c.processors < 1) {
    os << "processors must be >= 1 (got " << c.processors << ")";
    return os.str();
  }
  if (c.horizon < 1) {
    os << "horizon must be >= 1 (got " << c.horizon << ")";
    return os.str();
  }
  for (TaskId id = 0; id < c.tasks.size(); ++id) {
    const Task& t = c.tasks[id];
    if (!t.valid()) {
      os << "task " << id << " is invalid (execution " << t.execution << ", period "
         << t.period << ")";
      return os.str();
    }
  }
  const Rational total = c.tasks.total_weight();
  if (total > Rational(c.processors)) {
    os << "total weight " << total.num() << "/" << total.den() << " exceeds "
       << c.processors << " processors";
    return os.str();
  }
  for (std::size_t i = 0; i < c.joins.size(); ++i) {
    const JoinEvent& j = c.joins[i];
    if (j.at < 1) {
      os << "join " << i << " must be at time >= 1 (got " << j.at << ")";
      return os.str();
    }
    if (!j.task.valid()) {
      os << "join " << i << " has an invalid task (execution " << j.task.execution
         << ", period " << j.task.period << ")";
      return os.str();
    }
  }
  for (std::size_t i = 0; i < c.leaves.size(); ++i) {
    const LeaveEvent& l = c.leaves[i];
    if (l.at < 1) {
      os << "leave " << i << " must be at time >= 1 (got " << l.at << ")";
      return os.str();
    }
    if (l.task >= c.tasks.size()) {
      os << "leave " << i << " references unknown task " << l.task;
      return os.str();
    }
  }
  return {};
}

obs::json::Value case_to_json(const FuzzCase& c) {
  using obs::json::Array;
  using obs::json::Object;
  using obs::json::Value;
  Object o;
  o["seed"] = Value(static_cast<double>(c.seed));
  o["case"] = Value(static_cast<double>(c.index));
  o["profile"] = Value(std::string(profile_name(c.profile)));
  o["kind"] = Value(std::string(kind_name(c.kind)));
  o["processors"] = Value(static_cast<double>(c.processors));
  o["horizon"] = Value(static_cast<double>(c.horizon));
  Array tasks;
  for (const Task& t : c.tasks.tasks()) {
    Array pair;
    pair.emplace_back(static_cast<double>(t.execution));
    pair.emplace_back(static_cast<double>(t.period));
    tasks.emplace_back(std::move(pair));
  }
  o["tasks"] = Value(std::move(tasks));
  Array joins;
  for (const JoinEvent& j : c.joins) {
    Object jo;
    jo["at"] = Value(static_cast<double>(j.at));
    jo["execution"] = Value(static_cast<double>(j.task.execution));
    jo["period"] = Value(static_cast<double>(j.task.period));
    joins.emplace_back(std::move(jo));
  }
  o["joins"] = Value(std::move(joins));
  Array leaves;
  for (const LeaveEvent& l : c.leaves) {
    Object lo;
    lo["at"] = Value(static_cast<double>(l.at));
    lo["task"] = Value(static_cast<double>(l.task));
    leaves.emplace_back(std::move(lo));
  }
  o["leaves"] = Value(std::move(leaves));
  return Value(std::move(o));
}

bool case_from_json(const obs::json::Value& v, FuzzCase& out) {
  if (!v.is_object()) return false;
  const obs::json::Value* profile = v.find("profile");
  const obs::json::Value* kind = v.find("kind");
  const obs::json::Value* tasks = v.find("tasks");
  if (profile == nullptr || !profile->is_string() || tasks == nullptr ||
      !tasks->is_array()) {
    return false;
  }
  FuzzCase c;
  c.seed = static_cast<std::uint64_t>(v.number_or("seed", 0));
  c.index = static_cast<std::uint64_t>(v.number_or("case", 0));
  c.processors = static_cast<int>(v.number_or("processors", 1));
  c.horizon = static_cast<Time>(v.number_or("horizon", 1));
  bool found_profile = false;
  for (const Profile p : all_profiles()) {
    if (profile->as_string() == profile_name(p)) {
      c.profile = p;
      found_profile = true;
    }
  }
  if (!found_profile) return false;
  if (kind != nullptr && kind->is_string() &&
      !kind_from_name(kind->as_string(), c.kind)) {
    return false;
  }
  // A case file is external input: an invalid task must reach
  // validate(), which names it, so the set is built whole rather than
  // through TaskSet::add, which asserts validity.
  std::vector<Task> set;
  for (const obs::json::Value& t : tasks->as_array()) {
    if (!t.is_array() || t.as_array().size() != 2 || !t.as_array()[0].is_number() ||
        !t.as_array()[1].is_number()) {
      return false;
    }
    Task task;
    task.execution = static_cast<std::int64_t>(t.as_array()[0].as_number());
    task.period = static_cast<std::int64_t>(t.as_array()[1].as_number());
    task.kind = c.kind;
    set.push_back(task);
  }
  c.tasks = TaskSet(std::move(set));
  if (const obs::json::Value* joins = v.find("joins");
      joins != nullptr && joins->is_array()) {
    for (const obs::json::Value& j : joins->as_array()) {
      JoinEvent ev;
      ev.at = static_cast<Time>(j.number_or("at", 1));
      ev.task.execution = static_cast<std::int64_t>(j.number_or("execution", 1));
      ev.task.period = static_cast<std::int64_t>(j.number_or("period", 1));
      c.joins.push_back(ev);
    }
  }
  if (const obs::json::Value* leaves = v.find("leaves");
      leaves != nullptr && leaves->is_array()) {
    for (const obs::json::Value& l : leaves->as_array()) {
      LeaveEvent ev;
      ev.at = static_cast<Time>(l.number_or("at", 1));
      ev.task = static_cast<TaskId>(l.number_or("task", 0));
      c.leaves.push_back(ev);
    }
  }
  out = std::move(c);
  return true;
}

std::string case_to_gtest(const FuzzCase& c) {
  std::ostringstream os;
  os << "// Shrunk repro from `pfair_fuzz --seed=" << c.seed << "` (case " << c.index
     << ", profile " << profile_name(c.profile) << ").\n";
  os << "TEST(FuzzRepro, Seed" << c.seed << "Case" << c.index << ") {\n";
  os << "  qa::FuzzCase c;\n";
  os << "  c.seed = " << c.seed << "u;\n";
  os << "  c.index = " << c.index << "u;\n";
  os << "  c.processors = " << c.processors << ";\n";
  os << "  c.horizon = " << c.horizon << ";\n";
  if (c.kind == TaskKind::kEarlyRelease) {
    os << "  c.kind = TaskKind::kEarlyRelease;\n";
  }
  for (const Task& t : c.tasks.tasks()) {
    os << "  c.tasks.add(make_task(" << t.execution << ", " << t.period;
    if (c.kind != TaskKind::kPeriodic) os << ", c.kind";
    os << "));\n";
  }
  for (const JoinEvent& j : c.joins) {
    os << "  c.joins.push_back({" << j.at << ", make_task(" << j.task.execution << ", "
       << j.task.period << ")});\n";
  }
  for (const LeaveEvent& l : c.leaves) {
    os << "  c.leaves.push_back({" << l.at << ", " << l.task << "});\n";
  }
  os << "  const qa::CaseVerdict v = qa::check_case(c);\n";
  os << "  EXPECT_TRUE(v.ok) << v.oracle << \": \" << v.detail;\n";
  os << "}\n";
  return os.str();
}

}  // namespace pfair::qa
