#include "engine/harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "engine/parallel.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "obs/registry.h"

namespace pfair::engine {

namespace {

void append_value(std::string& out, const ExperimentHarness::Value& val) {
  // `prefix` (the brace or comma and the key) then `v` as a JSON number.
  const auto member = [&out](const char* prefix, double v) {
    out += prefix;
    obs::json::write_number(out, v);
  };
  if (const auto* d = std::get_if<double>(&val.v)) {
    obs::json::write_number(out, *d);
  } else if (const auto* i = std::get_if<long long>(&val.v)) {
    out += std::to_string(*i);
  } else if (const auto* s = std::get_if<std::string>(&val.v)) {
    obs::json::write_string(out, *s);
  } else if (const auto* st = std::get_if<RunningStats>(&val.v)) {
    member("{\"mean\":", st->mean());
    member(",\"ci99\":", st->ci99_halfwidth());
    member(",\"min\":", st->min());
    member(",\"max\":", st->max());
    out += ",\"n\":" + std::to_string(st->count()) + "}";
  } else {
    const auto& h = std::get<obs::Histogram>(val.v);
    out += "{\"edges\":[";
    for (std::size_t k = 0; k < h.edges().size(); ++k)
      member(k > 0 ? "," : "", h.edges()[k]);
    out += "],\"counts\":[";
    for (std::size_t k = 0; k < h.bucket_count(); ++k) {
      if (k > 0) out += ',';
      out += std::to_string(h.count(k));
    }
    out += "],\"underflow\":" + std::to_string(h.underflow()) +
           ",\"overflow\":" + std::to_string(h.overflow()) +
           ",\"total\":" + std::to_string(h.total());
    member(",\"p50\":", h.p50());
    member(",\"p95\":", h.p95());
    member(",\"p99\":", h.p99());
    out += '}';
  }
}

template <typename KvContainer>  // vector<pair> rows / map params
void append_object(std::string& out, const KvContainer& kv) {
  out += '{';
  bool first = true;
  for (const auto& [key, val] : kv) {
    if (!first) out += ',';
    first = false;
    obs::json::write_string(out, key);
    out += ':';
    append_value(out, val);
  }
  out += '}';
}

/// Strict integer / double parses; nullptr-safe.
bool parse_ll(const std::string& s, long long& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

ExperimentHarness::ExperimentHarness(std::string name, int argc, char** argv)
    : name_(std::move(name)) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--", 2) != 0) continue;  // positional args are gone
    const char* body = a + 2;
    const char* eq = std::strchr(body, '=');
    std::string key;
    std::string value;
    if (eq != nullptr) {
      key.assign(body, static_cast<std::size_t>(eq - body));
      value.assign(eq + 1);
    } else {
      key.assign(body);
      // "--flag value" form: consume the next token iff it does not
      // itself look like a flag.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        value.assign(argv[++i]);
      }
    }
    if (key == "json") {
      json_ = true;
      json_file_ = value;  // may be empty -> default path
      continue;
    }
    if (key == "prof") {
      // Attach self-profiling.  Like --jobs, never echoed into
      // params: the parity contract is that --prof=FILE leaves the BENCH
      // JSON byte-identical (the snapshot goes to FILE), while a bare
      // --prof folds the snapshot into the report as a "prof" member.
      prof_ = true;
      prof_file_ = value;
      obs::prof::set_enabled(true);
      continue;
    }
    args_.emplace_back(std::move(key), std::move(value));
  }
}

const std::string* ExperimentHarness::raw_flag(const std::string& key) const {
  for (const auto& [k, v] : args_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void ExperimentHarness::record_param(const std::string& key, Value v) const {
  const std::lock_guard<std::mutex> lock(params_mutex_);
  params_.emplace(key, std::move(v));  // first lookup wins; map keeps keys sorted
}

long long ExperimentHarness::flag(const std::string& key, long long fallback) const {
  long long out = fallback;
  if (const std::string* raw = raw_flag(key)) parse_ll(*raw, out);
  record_param(key, Value{out});
  return out;
}

double ExperimentHarness::flag_double(const std::string& key, double fallback) const {
  double out = fallback;
  if (const std::string* raw = raw_flag(key)) parse_double(*raw, out);
  record_param(key, Value{out});
  return out;
}

std::string ExperimentHarness::flag_string(const std::string& key,
                                           const std::string& fallback) const {
  std::string out = fallback;
  if (const std::string* raw = raw_flag(key)) out = *raw;
  record_param(key, Value{out});
  return out;
}

int ExperimentHarness::jobs() const {
  long long out = 0;
  if (const std::string* raw = raw_flag("jobs")) parse_ll(*raw, out);
  // Not recorded as a param (see header): the report must not depend on
  // the worker count.
  return out > 0 ? static_cast<int>(out) : ThreadPool::default_workers();
}

long long ExperimentHarness::trials(long long fallback) const {
  return flag("trials", fallback);
}

long long ExperimentHarness::horizon(long long fallback) const {
  return flag("horizon", fallback);
}

std::uint64_t ExperimentHarness::seed(std::uint64_t fallback) const {
  return static_cast<std::uint64_t>(flag("seed", static_cast<long long>(fallback)));
}

ExperimentHarness::Row& ExperimentHarness::Row::set(const std::string& key, double v) {
  cells_.emplace_back(key, Value{v});
  return *this;
}
ExperimentHarness::Row& ExperimentHarness::Row::set(const std::string& key, long long v) {
  cells_.emplace_back(key, Value{v});
  return *this;
}
ExperimentHarness::Row& ExperimentHarness::Row::set(const std::string& key,
                                                    const std::string& v) {
  cells_.emplace_back(key, Value{v});
  return *this;
}
ExperimentHarness::Row& ExperimentHarness::Row::set(const std::string& key,
                                                    const RunningStats& s) {
  cells_.emplace_back(key, Value{s});
  return *this;
}
ExperimentHarness::Row& ExperimentHarness::Row::set(const std::string& key,
                                                    const obs::Histogram& h) {
  cells_.emplace_back(key, Value{h});
  return *this;
}

ExperimentHarness::Row& ExperimentHarness::add_row() {
  rows_.emplace_back();
  return rows_.back();
}

std::string ExperimentHarness::json_path() const {
  return json_file_.empty() ? "BENCH_" + name_ + ".json" : json_file_;
}

std::string ExperimentHarness::to_json() const {
  std::string out = "{\"bench\":";
  obs::json::write_string(out, name_);
  out += ",\"params\":";
  {
    const std::lock_guard<std::mutex> lock(params_mutex_);
    append_object(out, params_);
  }
  out += ",\"rows\":[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0) out += ',';
    append_object(out, rows_[i].cells_);
  }
  out += "]";
  if (prof_ && prof_file_.empty()) {
    // Bare --prof: fold the registry snapshot into the report.  The
    // snapshot carries wall-clock figures, so this form is excluded from
    // byte-parity comparisons — those use --prof=FILE.
    obs::prof::snapshot_into(obs::MetricsRegistry::global());
    out += ",\"prof\":" + obs::MetricsRegistry::global().snapshot().dump();
  }
  out += "}\n";
  return out;
}

int ExperimentHarness::refuse(const std::invalid_argument& e) const {
  std::fflush(stdout);  // rows printed before the refusal come first
  std::fprintf(stderr, "%s: %s\n", name_.c_str(), e.what());
  return 1;
}

int ExperimentHarness::finish(int exit_code) {
  if (prof_ && !prof_file_.empty()) {
    obs::prof::snapshot_into(obs::MetricsRegistry::global());
    std::FILE* pf = std::fopen(prof_file_.c_str(), "w");
    if (pf == nullptr) {
      std::fprintf(stderr, "harness: cannot write %s\n", prof_file_.c_str());
      if (exit_code == 0) exit_code = 1;
    } else {
      const std::string doc = obs::MetricsRegistry::global().snapshot_json();
      std::fwrite(doc.data(), 1, doc.size(), pf);
      std::fclose(pf);
      std::printf("# wrote %s (registry snapshot)\n", prof_file_.c_str());
    }
  }
  if (!json_) return exit_code;
  const std::string path = json_path();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "harness: cannot write %s\n", path.c_str());
    return exit_code != 0 ? exit_code : 1;
  }
  const std::string doc = to_json();
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::printf("# wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  return exit_code;
}

}  // namespace pfair::engine
