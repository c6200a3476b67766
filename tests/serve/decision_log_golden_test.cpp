// Every byte of pfaird's decision logs, pinned.  Each configuration
// serves a generated stream (plus a tail of protocol-error lines) and
// hashes the whole log with FNV-1a; the table was recorded from the
// writer that built each line with one string append per token.  The
// same stream wrapped into batch lines of 64 must hash the same, so
// every batch element is pinned too.  Kinds whose gates and simulators
// answer alike write the same log: uniproc EDF and CBS, and the kinds
// that admit only at t = 0 and decide by Eq. (2) (WRR, BF and RUN).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "serve/daemon.h"
#include "serve/request.h"

namespace pfair::serve {
namespace {

using engine::SchedulerKind;

/// Lines every configuration answers with an error, after the stream:
/// unparsable, unknown op, missing field, and unknown tasks.
constexpr std::string_view kErrorTail =
    "this is not json\n"
    "{\"op\":\"frobnicate\"}\n"
    "{\"op\":\"join\",\"execution\":1}\n"
    "{\"op\":\"leave\",\"task\":999999}\n"
    "{\"op\":\"reweight\",\"task\":999999,\"execution\":1,\"period\":4}\n";

/// CI's seed-11 stream at load 1.5, trimmed; global-job draws periods
/// of at most 12 so that its Tier-2 calls reach the hyperperiod.
std::string stream(SchedulerKind kind) {
  GenConfig gen;
  gen.count = 10000;
  gen.seed = 11;
  gen.load = 1.5;
  if (kind == SchedulerKind::kGlobalJob) gen.max_period = 12;
  return generate_requests(gen) + std::string(kErrorTail);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037u;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211u;
  }
  return h;
}

struct Golden {
  SchedulerKind kind;
  UniAlgorithm algorithm;
  bool overhead;
  std::uint64_t exact_budget;
  std::uint64_t digest;
};

const std::uint64_t kBudget = DaemonConfig{}.exact_budget;

// clang-format off
const Golden kGolden[] = {
    {SchedulerKind::kPfair,       UniAlgorithm::kEDF, false, kBudget, 7865236420432559972u},
    {SchedulerKind::kPfair,       UniAlgorithm::kEDF, true,  kBudget, 6859163896250484770u},
    {SchedulerKind::kPartitioned, UniAlgorithm::kEDF, false, kBudget, 2800928462721452699u},
    {SchedulerKind::kPartitioned, UniAlgorithm::kEDF, true,  kBudget, 15814774758101607636u},
    {SchedulerKind::kGlobalJob,   UniAlgorithm::kEDF, false, kBudget, 5017088908339206699u},
    {SchedulerKind::kGlobalJob,   UniAlgorithm::kEDF, true,  kBudget, 2176707955394456462u},
    {SchedulerKind::kUniproc,     UniAlgorithm::kEDF, false, kBudget, 13514013346132317744u},
    {SchedulerKind::kUniproc,     UniAlgorithm::kEDF, true,  kBudget, 3058547428303984138u},
    {SchedulerKind::kWrr,         UniAlgorithm::kEDF, false, kBudget, 15546994556910654223u},
    {SchedulerKind::kWrr,         UniAlgorithm::kEDF, true,  kBudget, 15546994556910654223u},
    {SchedulerKind::kCbs,         UniAlgorithm::kEDF, false, kBudget, 13514013346132317744u},
    {SchedulerKind::kCbs,         UniAlgorithm::kEDF, true,  kBudget, 3058547428303984138u},
    {SchedulerKind::kBf,          UniAlgorithm::kEDF, false, kBudget, 15546994556910654223u},
    {SchedulerKind::kBf,          UniAlgorithm::kEDF, true,  kBudget, 15546994556910654223u},
    {SchedulerKind::kRun,         UniAlgorithm::kEDF, false, kBudget, 15546994556910654223u},
    {SchedulerKind::kRun,         UniAlgorithm::kEDF, true,  kBudget, 15546994556910654223u},
    {SchedulerKind::kUniproc,     UniAlgorithm::kRM,  false, kBudget, 2138207517878424996u},
    {SchedulerKind::kUniproc,     UniAlgorithm::kRM,  true,  kBudget, 15841478250239668192u},
    {SchedulerKind::kPartitioned, UniAlgorithm::kRM,  false, kBudget, 17310829390494754333u},
    {SchedulerKind::kPartitioned, UniAlgorithm::kRM,  true,  kBudget, 15814774758101607636u},
    {SchedulerKind::kGlobalJob,   UniAlgorithm::kRM,  false, kBudget, 8824075904088816982u},
    {SchedulerKind::kGlobalJob,   UniAlgorithm::kRM,  true,  kBudget, 8824075904088816982u},
    // Seven events exhaust most exact tests: Tier-1 answers marked approx.
    {SchedulerKind::kGlobalJob,   UniAlgorithm::kEDF, false, 7,       12989235797050247065u},
    {SchedulerKind::kGlobalJob,   UniAlgorithm::kRM,  false, 7,       1529277051874263718u},
};
// clang-format on

std::string serve_log(const Golden& g, const std::string& requests, DaemonStats* stats) {
  DaemonConfig c;
  c.kind = g.kind;
  c.processors = 4;
  c.algorithm = g.algorithm;
  c.overhead_aware = g.overhead;
  c.exact_budget = g.exact_budget;
  c.advance_per_request = 1;
  Daemon d(c);
  std::istringstream in(requests);
  std::ostringstream out;
  d.serve(in, out);
  *stats = d.stats();
  return out.str();
}

TEST(DecisionLogGolden, EveryByteMatchesTheRecordedDigest) {
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(testing::Message()
                 << engine::to_string(g.kind)
                 << (g.algorithm == UniAlgorithm::kRM ? " rm" : " edf")
                 << (g.overhead ? " overhead" : "") << " budget " << g.exact_budget);
    const std::string requests = stream(g.kind);
    DaemonStats plain;
    const std::string log = serve_log(g, requests, &plain);
    EXPECT_EQ(fnv1a(log), g.digest);
    DaemonStats batched;
    EXPECT_EQ(fnv1a(serve_log(g, batch_requests(requests, 64), &batched)), g.digest);
    EXPECT_EQ(batched.requests, plain.requests);
    if (g.exact_budget < kBudget) {
      EXPECT_GT(plain.approx, 0u);
    }
  }
}

}  // namespace
}  // namespace pfair::serve
