#include "serve/request.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/rng.h"

namespace pfair::serve {

namespace {

using Token = obs::json::Reader::Token;

/// Task parameters must be integral and exactly representable as the
/// doubles obs::json reads; the generator keeps its periods inside too.
constexpr double kParameterLimit = 9.0e15;

/// The "op" names, indexed by RequestOp.
constexpr std::string_view kOpNames[] = {"join", "leave", "reweight", "query", "advance", "batch"};
static_assert(std::size(kOpNames) == static_cast<std::size_t>(RequestOp::kBatch) + 1);

void fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
}

}  // namespace

std::string_view op_name(RequestOp op) noexcept {
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kOpNames) ? kOpNames[i] : "unknown";
}

const char* to_string(RequestOp op) noexcept {
  return op_name(op).data();  // every name is a string literal
}

namespace {

/// The members a request acts on; it reads and ignores any other.
enum class Member : std::uint8_t {
  kOther, kOp, kExecution, kPeriod, kTask, kTo, kName, kRequests
};

constexpr std::pair<std::string_view, Member> kMembers[] = {
    {"op", Member::kOp},     {"execution", Member::kExecution}, {"period", Member::kPeriod},
    {"task", Member::kTask}, {"to", Member::kTo},               {"name", Member::kName},
    {"requests", Member::kRequests}};

Member member_named(std::string_view key) {
  for (const auto& [name, member] : kMembers)
    if (key == name) return member;
  return Member::kOther;
}

std::optional<RequestOp> op_named(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kOpNames); ++i)
    if (name == kOpNames[i]) return static_cast<RequestOp>(i);
  return std::nullopt;
}

/// A member's value as a task parameter: an integral number within
/// +-kParameterLimit, else nullopt.
std::optional<std::int64_t> int_value(const obs::json::Reader& r, Token t) {
  if (t != Token::kNumber) return std::nullopt;
  const double d = r.number();
  if (d != std::floor(d) || d < -kParameterLimit || d > kParameterLimit) return std::nullopt;
  return static_cast<std::int64_t>(d);
}

const char* read_batch(obs::json::Reader& r, Token t, std::vector<Request>* subs);

/// Reads the members of the object value() just opened and interprets
/// them into `out`: nullptr, or the error token.  Members come in any
/// order and the last duplicate wins.  Only a top-level request may be
/// a batch (`top`), so only its "requests" are read as requests.  The
/// caller still owes the verdict on the line's syntax.
const char* read_request(obs::json::Reader& r, bool top, Request* out) {
  std::optional<RequestOp> op;
  std::optional<std::int64_t> execution, period, task, to;
  const char* batch_error = "bad-field";  // until "requests" holds some
  for (std::string_view key; r.next_member(&key);) {
    const Member m = member_named(key);  // before value() moves the view
    const Token t = r.value();
    switch (m) {
      case Member::kOp:
        op = t == Token::kString ? op_named(r.string()) : std::nullopt;
        break;
      case Member::kExecution: execution = int_value(r, t); break;
      case Member::kPeriod: period = int_value(r, t); break;
      case Member::kTask: task = int_value(r, t); break;
      case Member::kTo: to = int_value(r, t); break;
      case Member::kName:
        out->name = t == Token::kString ? r.string() : std::string_view();
        break;
      case Member::kRequests:
        if (top) {
          batch_error = read_batch(r, t, &out->batch);
          continue;
        }
        break;
      case Member::kOther: break;
    }
    r.skip(t);
  }
  if (!op.has_value()) return "bad-op";
  out->op = *op;
  // Only a join keeps its name and only a batch its requests.
  if (*op != RequestOp::kJoin) out->name.clear();
  if (*op != RequestOp::kBatch) out->batch.clear();
  switch (*op) {
    case RequestOp::kJoin:
    case RequestOp::kReweight:
      if (!execution.has_value() || !period.has_value()) return "bad-field";
      out->execution = *execution;
      out->period = *period;
      if (*op == RequestOp::kJoin) return nullptr;
      [[fallthrough]];
    case RequestOp::kLeave:
      if (!task.has_value() || *task < 0 || *task >= kNoTask) return "bad-field";
      out->task = static_cast<TaskId>(*task);
      return nullptr;
    case RequestOp::kQuery: return nullptr;
    case RequestOp::kAdvance:
      if (!to.has_value() || *to < 0) return "bad-field";
      out->to = *to;
      return nullptr;
    case RequestOp::kBatch:
      if (!top) return "bad-field";
      return batch_error;
  }
  return "bad-op";
}

/// Reads the rest of a batch's "requests" value, whose first token
/// value() returned as `t`, into `subs`: nullptr for a
/// non-empty array of valid requests, else the error token of its first
/// bad element ("bad-json" for one that is not an object), or
/// "bad-field" when there is none.
const char* read_batch(obs::json::Reader& r, Token t, std::vector<Request>* subs) {
  subs->clear();
  if (t != Token::kArray) {
    r.skip(t);
    return "bad-field";
  }
  const char* error = nullptr;
  while (r.next_element()) {
    Request sub;
    const char* why = "bad-json";
    const Token e = r.value();
    if (e == Token::kObject) {
      why = read_request(r, false, &sub);
    } else {
      r.skip(e);
    }
    if (error == nullptr && why != nullptr) error = why;
    if (error == nullptr) subs->push_back(std::move(sub));
  }
  return error == nullptr && subs->empty() ? "bad-field" : error;
}

}  // namespace

std::optional<Request> parse_request(std::string_view line, std::string* error) {
  // One pass: members are interpreted as they are read, and a syntax
  // error anywhere in the line outranks what they said.
  obs::json::Reader r(line);
  Request req;
  const char* why = r.value() == Token::kObject ? read_request(r, true, &req) : "bad-json";
  if (!r.finish()) why = "bad-json";
  if (why != nullptr) {
    fail(error, why);
    return std::nullopt;
  }
  return req;
}

namespace {

[[nodiscard]] obs::json::Object request_object(const Request& r) {
  obs::json::Object o;
  o["op"] = obs::json::Value(std::string(op_name(r.op)));
  switch (r.op) {
    case RequestOp::kJoin:
      o["execution"] = obs::json::Value(static_cast<double>(r.execution));
      o["period"] = obs::json::Value(static_cast<double>(r.period));
      if (!r.name.empty()) o["name"] = obs::json::Value(r.name);
      break;
    case RequestOp::kReweight:
      o["execution"] = obs::json::Value(static_cast<double>(r.execution));
      o["period"] = obs::json::Value(static_cast<double>(r.period));
      o["task"] = obs::json::Value(static_cast<double>(r.task));
      break;
    case RequestOp::kLeave:
      o["task"] = obs::json::Value(static_cast<double>(r.task));
      break;
    case RequestOp::kQuery:
      break;
    case RequestOp::kAdvance:
      o["to"] = obs::json::Value(static_cast<double>(r.to));
      break;
    case RequestOp::kBatch: {
      obs::json::Array subs;
      subs.reserve(r.batch.size());
      for (const Request& sub : r.batch)
        subs.push_back(obs::json::Value(request_object(sub)));
      o["requests"] = obs::json::Value(std::move(subs));
      break;
    }
  }
  return o;
}

}  // namespace

std::string dump_request(const Request& r) {
  return obs::json::Value(request_object(r)).dump();
}

std::string batch_requests(std::string_view jsonl, std::size_t size) {
  if (size < 2) return std::string(jsonl);
  std::string out;
  out.reserve(jsonl.size() + jsonl.size() / 16);
  Request group;
  group.op = RequestOp::kBatch;
  const auto flush = [&] {
    if (group.batch.empty()) return;
    out += dump_request(group);
    out += '\n';
    group.batch.clear();
  };
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', pos);
    const std::string_view line =
        jsonl.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? jsonl.size() : nl + 1;
    if (line.empty()) continue;
    const std::optional<Request> r = parse_request(line);
    if (!r.has_value() || r->op == RequestOp::kBatch) {
      // Unparseable or already batched: keep the line as-is so the
      // daemon still answers it (its error reply is part of the log).
      flush();
      out += line;
      out += '\n';
      continue;
    }
    group.batch.push_back(*r);
    if (group.batch.size() >= size) flush();
  }
  flush();
  return out;
}

std::string generate_requests(const GenConfig& config) {
  if (config.max_period < 2 || config.max_period > static_cast<std::int64_t>(kParameterLimit))
    throw std::invalid_argument(
        "generate_requests: max_period must lie in [2, 9e15], the periods parse_request "
        "accepts");
  Rng rng(config.seed);
  std::string out;
  out.reserve(config.count * 48);
  Time clock = 0;
  // Ids the daemon will have assigned are unknowable here (rejected
  // joins get no id), so leave/reweight draw from the range of ids that
  // *could* exist; misses exercise the daemon's unknown-task reply,
  // which is itself part of the deterministic decision log.
  std::int64_t joins = 0;
  const double u_hi = std::clamp(0.25 * config.load, 0.05, 1.0);
  for (std::size_t i = 0; i < config.count; ++i) {
    Request r;
    const std::int64_t roll = rng.uniform_int(0, 15);
    if (roll <= 8 || joins == 0) {
      r.op = RequestOp::kJoin;
      r.period = rng.uniform_int(2, config.max_period);
      const double u = rng.uniform(0.02, u_hi);
      r.execution = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::lround(static_cast<double>(r.period) * u)),
          1, r.period);
      ++joins;
    } else if (roll <= 10) {
      r.op = RequestOp::kLeave;
      r.task = static_cast<TaskId>(rng.uniform_int(0, joins - 1));
    } else if (roll <= 12) {
      r.op = RequestOp::kReweight;
      r.task = static_cast<TaskId>(rng.uniform_int(0, joins - 1));
      r.period = rng.uniform_int(2, config.max_period);
      const double u = rng.uniform(0.02, u_hi);
      r.execution = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(std::lround(static_cast<double>(r.period) * u)),
          1, r.period);
    } else if (roll == 13) {
      r.op = RequestOp::kQuery;
    } else {
      r.op = RequestOp::kAdvance;
      clock += rng.uniform_int(1, 4);
      r.to = clock;
    }
    out += dump_request(r);
    out += '\n';
  }
  return out;
}

}  // namespace pfair::serve
