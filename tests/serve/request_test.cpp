// pfaird's request parser, one pass of obs::json::Reader per line.
// A table pins its answer to each kind of line a client can send, and a
// differential run on mutated lines compares it with the reference it
// replaced: obs::json::parse, then each member read off the tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "serve/request.h"
#include "util/rng.h"

namespace pfair::serve {
namespace {

// --- the reference: the same protocol rules read off a tree ---------

bool to_int(const obs::json::Value& v, std::int64_t* out) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  if (d != std::floor(d) || d < -9.0e15 || d > 9.0e15) return false;
  *out = static_cast<std::int64_t>(d);
  return true;
}

bool member_int(const obs::json::Value& obj, const char* key, std::int64_t* out) {
  const obs::json::Value* m = obj.find(key);
  return m != nullptr && to_int(*m, out);
}

std::optional<Request> fail(std::string* error, const char* why) {
  *error = why;
  return std::nullopt;
}

/// One request object; `allow_batch` is off for a batch's elements.
std::optional<Request> parse_request_value(const obs::json::Value& doc, std::string* error,
                                           bool allow_batch) {
  if (!doc.is_object()) return fail(error, "bad-json");
  const std::string op = doc.string_or("op", "");
  Request r;
  if (op == "batch") {
    if (!allow_batch) return fail(error, "bad-field");
    r.op = RequestOp::kBatch;
    const obs::json::Value* reqs = doc.find("requests");
    if (reqs == nullptr || !reqs->is_array() || reqs->as_array().empty())
      return fail(error, "bad-field");
    for (const obs::json::Value& sub : reqs->as_array()) {
      std::optional<Request> parsed = parse_request_value(sub, error, false);
      if (!parsed.has_value()) return std::nullopt;
      r.batch.push_back(std::move(*parsed));
    }
    return r;
  }
  if (op == "join" || op == "reweight") {
    r.op = op == "join" ? RequestOp::kJoin : RequestOp::kReweight;
    if (!member_int(doc, "execution", &r.execution) || !member_int(doc, "period", &r.period))
      return fail(error, "bad-field");
    if (r.op == RequestOp::kJoin) {
      r.name = doc.string_or("name", "");
    } else {
      std::int64_t id = 0;
      if (!member_int(doc, "task", &id) || id < 0 || id >= kNoTask)
        return fail(error, "bad-field");
      r.task = static_cast<TaskId>(id);
    }
    return r;
  }
  if (op == "leave") {
    r.op = RequestOp::kLeave;
    std::int64_t id = 0;
    if (!member_int(doc, "task", &id) || id < 0 || id >= kNoTask)
      return fail(error, "bad-field");
    r.task = static_cast<TaskId>(id);
    return r;
  }
  if (op == "query") {
    r.op = RequestOp::kQuery;
    return r;
  }
  if (op == "advance") {
    r.op = RequestOp::kAdvance;
    if (!member_int(doc, "to", &r.to) || r.to < 0) return fail(error, "bad-field");
    return r;
  }
  return fail(error, "bad-op");
}

/// Every field of `r`, sub-requests included, so that two parses
/// compare equal only when the daemon could not tell them apart.
std::string fields(const Request& r) {
  std::string s = std::string(to_string(r.op)) + " e=" + std::to_string(r.execution) +
                  " p=" + std::to_string(r.period) + " t=" + std::to_string(r.task) +
                  " to=" + std::to_string(r.to) + " name=" + r.name + " [";
  for (const Request& sub : r.batch) s += fields(sub) + "; ";
  return s + "]";
}

std::string reference_fields(std::string_view line) {
  std::string error = "bad-json";
  const std::optional<obs::json::Value> doc = obs::json::parse(line);
  if (!doc.has_value()) return error;
  const std::optional<Request> r = parse_request_value(*doc, &error, true);
  return r.has_value() ? fields(*r) : error;
}

std::string parsed_fields(std::string_view line) {
  std::string error;
  const std::optional<Request> r = parse_request(line, &error);
  return r.has_value() ? fields(*r) : error;
}

/// parse_request's answer: the canonical line, or the error token.
std::string answer(std::string_view line) {
  std::string error;
  const std::optional<Request> r = parse_request(line, &error);
  return r.has_value() ? dump_request(*r) : error;
}

// --- the table ------------------------------------------------------

/// Lines and the answers the flat-scanner-plus-tree parser gave them.
const std::vector<std::pair<std::string, std::string>> kTable = {
    // whitespace and CR; duplicate members, op included; requests
    // before op; escapes in keys and values; number spellings;
    // members of the wrong type; truncated lines, trailing garbage and
    // tops that are not objects; batches.
    {R"(  { "op" : "query" }  )",
     R"({"op":"query"})"},
    {"{\"op\":\"query\"}\r",
     R"({"op":"query"})"},
    {"\t{\"op\":\"leave\",\r\n\"task\":2}\r\n",
     R"({"op":"leave","task":2})"},
    {"{ \"op\" :\t\"advance\" , \"to\" : 7 }",
     R"({"op":"advance","to":7})"},
    {R"({"op":"join","op":"leave","task":1})",
     R"({"op":"leave","task":1})"},
    {R"({"op":"leave","task":1,"task":2})",
     R"({"op":"leave","task":2})"},
    {R"({"op":"leave","task":1,"task":"x"})",
     "bad-field"},
    {R"({"op":"leave","task":"x","task":1})",
     R"({"op":"leave","task":1})"},
    {R"({"op":"join","execution":1,"execution":3,"period":10})",
     R"({"execution":3,"op":"join","period":10})"},
    {R"({"op":"frob","op":"query"})",
     R"({"op":"query"})"},
    {R"({"op":"query","op":7})",
     "bad-op"},
    {R"({"requests":[{"op":"query"}],"op":"batch"})",
     R"({"op":"batch","requests":[{"op":"query"}]})"},
    {R"({"requests":[{"op":"leave"}],"op":"batch"})",
     "bad-field"},
    {R"({"op":"batch","requests":[{"op":"leave"}],"requests":[{"op":"query"}]})",
     R"({"op":"batch","requests":[{"op":"query"}]})"},
    {R"({"op":"batch","requests":[{"op":"query"}],"requests":[]})",
     "bad-field"},
    {R"({"op":"batch","requests":[{"op":"query"}],"requests":7})",
     "bad-field"},
    {R"({"o\u0070":"join","execution":1,"period":4})",
     R"({"execution":1,"op":"join","period":4})"},
    {R"({"op":"j\u006fin","execution":1,"period":4})",
     R"({"execution":1,"op":"join","period":4})"},
    {R"({"op":"join","execution":1,"period":4,"name":"a\"b\\c\/d\b\f\n\r\t\u00e9\u20AC"})",
     "{\"execution\":1,\"name\":\"a\\\"b\\\\c/d\\u0008\\u000c\\n\\r\\t\xc3" "\xa9" "\xe2" "\x82" "\xac" "\",\"op\":\"join\",\"period\":4}"},
    {R"({"op":"join","execution":1,"period":4,"name":"x\u0041","n\u0061me":"y"})",
     R"({"execution":1,"name":"y","op":"join","period":4})"},
    {R"({"op":"leave","t\u0061sk":5})",
     R"({"op":"leave","task":5})"},
    {R"({"op":"join\u0000","execution":1,"period":4})",
     "bad-op"},
    {R"({"op\u0000":"query"})",
     "bad-op"},
    {R"({"op":"query","name":"\x"})",
     "bad-json"},
    {R"({"op":"query","name":"\u12"})",
     "bad-json"},
    {R"({"op":"query","name":"\u12G4"})",
     "bad-json"},
    {"{\"op\":\"query\",\"name\":\"tab\traw\"}",
     R"({"op":"query"})"},
    {R"({"op":"advance","to":+1})",
     R"({"op":"advance","to":1})"},
    {R"({"op":"advance","to":01})",
     R"({"op":"advance","to":1})"},
    {R"({"op":"advance","to":1.})",
     R"({"op":"advance","to":1})"},
    {R"({"op":"advance","to":.5})",
     "bad-field"},
    {R"({"op":"advance","to":-0})",
     R"({"op":"advance","to":0})"},
    {R"({"op":"advance","to":2.0})",
     R"({"op":"advance","to":2})"},
    {R"({"op":"advance","to":1e-310})",
     "bad-field"},
    {R"({"op":"advance","to":1e-400})",
     R"({"op":"advance","to":0})"},
    {R"({"op":"advance","to":1e999})",
     "bad-field"},
    {R"({"op":"advance","to":9e15})",
     R"({"op":"advance","to":9000000000000000})"},
    {R"({"op":"advance","to":9000000000000001})",
     "bad-field"},
    {R"({"op":"advance","to":1e})",
     "bad-json"},
    {R"({"op":"advance","to":-})",
     "bad-json"},
    {R"({"op":"advance","to":0x10})",
     "bad-json"},
    {R"({"op":"advance","to":1E+2})",
     R"({"op":"advance","to":100})"},
    {R"({"op":"advance","to":-1})",
     "bad-field"},
    {R"({"op":"advance","to":1-2})",
     "bad-json"},
    {R"({"op":"advance","to":--1})",
     "bad-json"},
    {R"({"op":"advance","to":+-1})",
     "bad-json"},
    {R"({"op":"advance","to":e5})",
     "bad-json"},
    {R"({"op":"advance","to":Infinity})",
     "bad-json"},
    {R"({"op":"advance","to":NaN})",
     "bad-json"},
    {R"({"op":"advance","to":1.5e1})",
     R"({"op":"advance","to":15})"},
    {R"({"op":"advance","to":00000000000000000000000000000000000000000000000000000000000000000000000000012})",
     R"({"op":"advance","to":12})"},
    {R"({"op":"advance","to":999999999999999})",
     R"({"op":"advance","to":999999999999999})"},
    {R"({"op":"advance","to":1000000000000000})",
     R"({"op":"advance","to":1000000000000000})"},
    {R"({"op":"advance","to":000000000000007})",
     R"({"op":"advance","to":7})"},
    {R"({"op":"advance","to":0000000000000007})",
     R"({"op":"advance","to":7})"},
    {R"({"op":"advance","to":9007199254740993})",
     "bad-field"},
    {R"({"op":"leave","task":4294967294})",
     R"({"op":"leave","task":4294967294})"},
    {R"({"op":"leave","task":4294967295})",
     "bad-field"},
    {R"({"op":"leave","task":+3})",
     R"({"op":"leave","task":3})"},
    {R"({"op":"join","execution":-0,"period":-9e15})",
     R"({"execution":0,"op":"join","period":-9000000000000000})"},
    {R"({"op":"leave","task":"1"})",
     "bad-field"},
    {R"({"op":"leave","task":true})",
     "bad-field"},
    {R"({"op":"leave","task":false})",
     "bad-field"},
    {R"({"op":"leave","task":null})",
     "bad-field"},
    {R"({"op":"leave","task":[1]})",
     "bad-field"},
    {R"({"op":"leave","task":{"v":1}})",
     "bad-field"},
    {R"({"op":1})",
     "bad-op"},
    {R"({"op":null})",
     "bad-op"},
    {R"({"op":true})",
     "bad-op"},
    {R"({"op":["join"]})",
     "bad-op"},
    {R"({"op":{"op":"query"}})",
     "bad-op"},
    {R"({"op":"JOIN"})",
     "bad-op"},
    {R"({"op":""})",
     "bad-op"},
    {R"({})",
     "bad-op"},
    {R"({"op":"join","execution":1,"period":4,"name":7})",
     R"({"execution":1,"op":"join","period":4})"},
    {R"({"op":"join","execution":1,"period":4,"name":"x","name":null})",
     R"({"execution":1,"op":"join","period":4})"},
    {R"({"op":"join","execution":1,"period":4,"name":["x"]})",
     R"({"execution":1,"op":"join","period":4})"},
    {R"({"op":"leave","task":1,"name":"ignored"})",
     R"({"op":"leave","task":1})"},
    {R"({"op":"reweight","task":1,"execution":1})",
     "bad-field"},
    {R"({"op":"reweight","execution":1,"period":5})",
     "bad-field"},
    {R"({"op":"reweight","task":-1,"execution":1,"period":5})",
     "bad-field"},
    {R"({"op":"reweight","task":2,"execution":1,"period":5,"name":"n"})",
     R"({"execution":1,"op":"reweight","period":5,"task":2})"},
    {R"({"op":"query","to":"x","task":[],"execution":{}})",
     R"({"op":"query"})"},
    {R"({"op":"advance"})",
     "bad-field"},
    {R"({"op":"advance","to":-1})",
     "bad-field"},
    {R"()",
     "bad-json"},
    {R"(   )",
     "bad-json"},
    {R"({)",
     "bad-json"},
    {R"({"op")",
     "bad-json"},
    {R"({"op":)",
     "bad-json"},
    {R"({"op":"que)",
     "bad-json"},
    {R"({"op":"query")",
     "bad-json"},
    {R"({"op":"query",)",
     "bad-json"},
    {R"({"op":"batch","requests":[{"op":"query"})",
     "bad-json"},
    {R"({"op":"query"} x)",
     "bad-json"},
    {R"({"op":"query"}})",
     "bad-json"},
    {R"({"op":"query"},)",
     "bad-json"},
    {R"({"op":"query"}{})",
     "bad-json"},
    {R"({"op":"query",})",
     "bad-json"},
    {R"({,"op":"query"})",
     "bad-json"},
    {R"({"op":"query" "to":1})",
     "bad-json"},
    {R"({"op" "query"})",
     "bad-json"},
    {R"({op:"query"})",
     "bad-json"},
    {R"({'op':'query'})",
     "bad-json"},
    {R"({"op":"query","x":tru})",
     "bad-json"},
    {R"({"op":"query","x":nul})",
     "bad-json"},
    {R"({"op":"query","x":falsey})",
     "bad-json"},
    {R"({"op":"query","x":[1,]})",
     "bad-json"},
    {R"({"op":"query","x":[,1]})",
     "bad-json"},
    {R"({"op":"query","x":[1 2]})",
     "bad-json"},
    {R"([])",
     "bad-json"},
    {R"([{"op":"query"}])",
     "bad-json"},
    {R"("query")",
     "bad-json"},
    {R"(1)",
     "bad-json"},
    {R"(null)",
     "bad-json"},
    {R"(true)",
     "bad-json"},
    {R"({"op":"batch","requests":[]})",
     "bad-field"},
    {R"({"op":"batch"})",
     "bad-field"},
    {R"({"op":"batch","requests":{}})",
     "bad-field"},
    {R"({"op":"batch","requests":"x"})",
     "bad-field"},
    {R"({"op":"batch","requests":null})",
     "bad-field"},
    {R"({"op":"batch","requests":[1]})",
     "bad-json"},
    {R"({"op":"batch","requests":[[]]})",
     "bad-json"},
    {R"({"op":"batch","requests":[{"op":"query"},null]})",
     "bad-json"},
    {R"({"op":"batch","requests":[{"op":"batch","requests":[{"op":"query"}]}]})",
     "bad-field"},
    {R"({"op":"batch","requests":[{"op":"batch","requests":7}]})",
     "bad-field"},
    {R"({"op":"batch","requests":[{"op":"leave"},{"op":"frob"}]})",
     "bad-field"},
    {R"({"op":"batch","requests":[{"op":"frob"},{"op":"leave"}]})",
     "bad-op"},
    {R"({"op":"batch","requests":[{"op":"query"},1,{"op":"leave"}]})",
     "bad-json"},
    {R"({"op":"batch","requests":[{"op":"leave"},1]})",
     "bad-field"},
    {R"({"op":"batch","requests":[{"op":"leave"},{"op":"query"]})",
     "bad-json"},
    {R"({"op":"batch","requests":[{"op":"frob"}],"x":tru})",
     "bad-json"},
    {R"({"op":"batch","requests":[{"op":"query"},{"op":"advance","to":3}]})",
     R"({"op":"batch","requests":[{"op":"query"},{"op":"advance","to":3}]})"},
    {R"({"op":"batch","requests":[{"op":"join","execution":1,"period":4,"requests":[{"op":"batch"}]}]})",
     R"({"op":"batch","requests":[{"execution":1,"op":"join","period":4}]})"},
    {R"({"op":"query","requests":[1]})",
     R"({"op":"query"})"},
    {R"({"op":"query","requests":[{"op":"leave"]})",
     "bad-json"},
    {R"({"op":"batch","requests":[{"op":"query"}],"op":"query"})",
     R"({"op":"query"})"},
    {R"({"op":"batch","requests":[{"op":"query"}],"op":7})",
     "bad-op"},
    {R"({"op":"batch","requests":[{"op":"leave","task":4}]})",
     R"({"op":"batch","requests":[{"op":"leave","task":4}]})"},
};

TEST(RequestParse, AnswersMatchTheRecordedTable) {
  for (const auto& [line, want] : kTable) EXPECT_EQ(answer(line), want) << line;
}

TEST(RequestParse, NestingDeeperThan64IsBadJson) {
  // An unknown member holding k nested containers: the innermost sits
  // at depth k, and whatever it holds at depth k + 1.
  const std::string ok = R"({"op":"query"})";
  for (int k = 62; k <= 66; ++k) {
    const std::string arrays(static_cast<std::size_t>(k), '[');
    const std::string closes(static_cast<std::size_t>(k), ']');
    std::string objects;
    for (int i = 0; i < k; ++i) objects += R"({"a":)";
    objects += "0" + std::string(static_cast<std::size_t>(k), '}');
    const std::string prefix = R"({"op":"query","x":)";
    EXPECT_EQ(answer(prefix + arrays + closes + "}"), k <= 64 ? ok : "bad-json") << k;
    EXPECT_EQ(answer(prefix + arrays + "1" + closes + "}"), k <= 63 ? ok : "bad-json") << k;
    EXPECT_EQ(answer(prefix + objects + "}"), k <= 63 ? ok : "bad-json") << k;
  }
}

TEST(JsonReader, NumbersReadAsStrtodReadsThem) {
  const std::vector<std::pair<std::string, std::string>> dumps = {
      {"+1", "1"},   {"01", "1"},   {"1.", "1"},
      {".5", "0.5"}, {"-0", "-0"},  {"2.0", "2"},
      {"1e-310", "9.9999999999999694e-311"},
      {"1e-400", "0"},
      {"1e999", "null"},
      {"9e15", "9000000000000000"},
      {"9000000000000001", "9000000000000001"},
      // Digit runs around 15 digits, the longest read as an integer.
      {"999999999999999", "999999999999999"},
      {"1000000000000000", "1000000000000000"},
      {"9007199254740993", "9007199254740992"},
      {"12345678901234567890", "1.2345678901234567e+19"},
  };
  for (const auto& [text, want] : dumps) {
    const std::optional<obs::json::Value> v = obs::json::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_EQ(v->dump(), want) << text;
  }
  EXPECT_EQ(obs::json::parse("+1")->as_number(), 1.0);
  EXPECT_TRUE(std::isinf(obs::json::parse("1e999")->as_number()));
  EXPECT_EQ(obs::json::parse("1e-400")->as_number(), 0.0);
  for (const char* bad : {"1e", "-", "+", "0x10", "1-2", "e5", ""})
    EXPECT_FALSE(obs::json::parse(bad).has_value()) << bad;
}

// --- the differential run -------------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// `n` seeded byte-level mutations of generated plain and batch lines
/// and of the table's lines: bytes replaced, inserted, deleted,
/// swapped or copied, JSON fragments spliced in, and truncation.
std::vector<std::string> mutated_lines(std::size_t n, std::uint64_t seed) {
  GenConfig gc;
  gc.count = 2000;
  gc.seed = seed;
  const std::string plain = generate_requests(gc);
  std::vector<std::string> bases = lines_of(plain);
  for (const std::string& line : lines_of(batch_requests(plain, 8))) bases.push_back(line);
  for (const auto& row : kTable) bases.push_back(row.first);
  const std::vector<std::string> fragments = {
      R"("op":"batch")", R"("requests":[)", R"({"op":"leave","task":1})", R"(p)",
      R"(\u00)", "1e999", "-0", R"("name":"x")", "[[[", "]]]", "}", "{",
      R"("execution":)", R"(,"task":-1)", "null", "true", "1e-400", "+1", ".5",
      R"("op")", ",{}", ",[]", R"(\")", R"("to":)", "9e15", "1.", "01",
      R"("requests":[{"op":"query"}])", ",", ":", "\"", "\\", "\r", " ",
      "999999999999999", "9007199254740993"};
  const std::string bytes = std::string("{}[]\":,\\ \t\r\n0123456789.eE+-tfnulrasxbq/") + '\0';
  Rng rng(seed);
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string s = bases[pick(bases.size())];
    for (std::int64_t m = rng.uniform_int(1, 4); m > 0; --m) {
      const std::size_t pos = pick(s.size() + 1);
      const char byte = bytes[pick(bytes.size())];
      switch (rng.uniform_int(0, 6)) {
        case 0: if (pos < s.size()) s[pos] = byte; break;
        case 1: s.insert(pos, 1, byte); break;
        case 2: if (pos < s.size()) s.erase(pos, 1); break;
        case 3: s.insert(pos, fragments[pick(fragments.size())]); break;
        case 4: if (pos < s.size()) s.insert(pos, s.substr(pos, pick(13))); break;
        case 5: if (rng.uniform_int(0, 3) == 0) s.resize(pos); break;
        default: {
          const std::size_t other = pick(s.size() + 1);
          if (pos < s.size() && other < s.size()) std::swap(s[pos], s[other]);
        }
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(RequestParse, SinglePassMatchesTheTreeOnMutatedLines) {
  const std::vector<std::string> lines = mutated_lines(60000, 17);
  std::vector<std::string> tokens;
  std::size_t accepted = 0;
  for (const std::string& line : lines) {
    const std::string want = reference_fields(line);
    ASSERT_EQ(parsed_fields(line), want) << line;
    if (want.rfind("bad-", 0) == 0) {
      tokens.push_back(want);
    } else {
      ++accepted;
    }
  }
  // The corpus must reach every verdict, not only the syntax check.
  for (const char* token : {"bad-json", "bad-op", "bad-field"})
    EXPECT_GT(std::count(tokens.begin(), tokens.end(), token), 1000) << token;
  EXPECT_GT(accepted, 1000u);
}

// --- spellings, errors, batches, round trips ------------------------

TEST(RequestParse, FastAndSlowSpellingsAgree) {
  // Each pair is the same request spelled plainly and with whitespace,
  // duplicates, other number spellings or extra members.  dump_request
  // canonicalizes, so equality of dumps is equality of parses.
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {R"({"op":"join","execution":2,"period":10})",
       R"(  { "op" : "join" , "execution" : 2 , "period" : 10 }  )"},
      {R"({"op":"join","execution":2,"period":10})",
       R"({"op":"join","execution":2,"period":10})"},
      {R"({"op":"join","execution":3,"period":10})",
       R"({"op":"join","execution":1,"execution":3,"period":10})"},  // last wins
      {R"({"op":"join","execution":2,"period":100})",
       R"({"op":"join","execution":2,"period":1e2})"},
      {R"({"op":"join","execution":2,"period":4,"ignored":true})",
       R"({"op":"join","execution":2.0,"period":4,"unknown":[1,{"x":2}]})"},
      {R"({"op":"leave","task":3})", R"({"op":"leave","task":3,"name":7})"},
      {R"({"op":"advance","to":40})", R"({"op":"advance","to":40.0})"},
  };
  for (const auto& [flat, slow] : pairs) {
    const std::optional<Request> a = parse_request(flat);
    const std::optional<Request> b = parse_request(slow);
    ASSERT_TRUE(a.has_value()) << flat;
    ASSERT_TRUE(b.has_value()) << slow;
    EXPECT_EQ(dump_request(*a), dump_request(*b)) << slow;
  }
}

TEST(RequestParse, ErrorTokensMatchAcrossParserPaths) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"not json at all", "bad-json"},
      {R"({"op":"join","execution":2,"period":10} trailing)", "bad-json"},
      {R"({"op":"frobnicate"})", "bad-op"},
      {R"({"op":42})", "bad-op"},
      {R"({"op":"join","execution":1})", "bad-field"},
      {R"({"op":"join","execution":1.5,"period":10})", "bad-field"},
      {R"({"op":"join","execution":1,"period":1e19})", "bad-field"},
      {R"({"op":"leave","task":-1})", "bad-field"},
      {R"({"op":"leave"})", "bad-field"},
  };
  for (const auto& [line, want] : cases) {
    std::string error;
    EXPECT_FALSE(parse_request(line, &error).has_value()) << line;
    EXPECT_EQ(error, want) << line;
  }
}

TEST(RequestParse, BatchesCarrySubRequestsAndNeverNest) {
  const std::string requests =
      "{\"op\":\"join\",\"execution\":1,\"period\":4}\n"
      "{\"op\":\"query\"}\n"
      "{\"op\":\"advance\",\"to\":8}\n";
  const std::string batched = batch_requests(requests, 3);
  EXPECT_EQ(std::count(batched.begin(), batched.end(), '\n'), 1);
  const std::optional<Request> b =
      parse_request(batched.substr(0, batched.find('\n')));
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(b->op, RequestOp::kBatch);
  ASSERT_EQ(b->batch.size(), 3u);
  EXPECT_EQ(b->batch[0].op, RequestOp::kJoin);
  EXPECT_EQ(b->batch[2].to, 8);

  std::string error;
  const std::string nested =
      R"({"op":"batch","requests":[{"op":"batch","requests":[{"op":"query"}]}]})";
  EXPECT_FALSE(parse_request(nested, &error).has_value());
  EXPECT_EQ(error, "bad-field");
  EXPECT_FALSE(parse_request(R"({"op":"batch","requests":[]})").has_value());
}

TEST(RequestParse, DumpRoundTripsEveryGeneratedLine) {
  GenConfig gc;
  gc.count = 300;
  gc.seed = 5;
  std::istringstream in(generate_requests(gc));
  std::string line;
  while (std::getline(in, line)) {
    const std::optional<Request> r = parse_request(line);
    ASSERT_TRUE(r.has_value()) << line;
    EXPECT_EQ(dump_request(*r), line);
  }
}

TEST(RequestGen, MaxPeriodMustBeAPeriodTheParserAccepts) {
  GenConfig gc;
  gc.count = 200;
  for (const std::int64_t bad : {std::int64_t{-5}, std::int64_t{0}, std::int64_t{1},
                                 std::int64_t{9'000'000'000'000'001},
                                 std::int64_t{10'000'000'000'000'000}}) {
    gc.max_period = bad;
    EXPECT_THROW((void)generate_requests(gc), std::invalid_argument) << bad;
  }
  for (const std::int64_t good : {std::int64_t{2}, std::int64_t{9'000'000'000'000'000}}) {
    gc.max_period = good;
    for (const std::string& line : lines_of(generate_requests(gc)))
      EXPECT_TRUE(parse_request(line).has_value()) << line;
  }
}

}  // namespace
}  // namespace pfair::serve
