// The pfaird request protocol: streaming JSONL, one request per line.
//
// Six operations cover the dynamic-task API the daemon fronts:
//
//   {"op":"join","execution":3,"period":10}        optional "name","weight"
//   {"op":"leave","task":2}
//   {"op":"reweight","task":2,"execution":1,"period":5}
//   {"op":"query"}
//   {"op":"advance","to":400}
//   {"op":"batch","requests":[{...},{...}]}
//
// "advance" moves the served simulator's clock (the daemon also
// advances by --advance slots per request, so a pure request stream
// exercises the dynamic rules without wall-clock coupling).  "batch"
// carries a non-empty array of the other five (batches do not nest);
// the daemon answers with one decision line per sub-request, in
// request order, byte-identical to the lines the sub-requests would
// have produced arriving individually — batching saves round trips,
// never changes answers.
// Numbers follow obs::json (doubles); task parameters must be integers
// within +-9e15, and any other value fails parsing rather than truncate.
//
// Requests parse into a flat Request struct, and dump back to the same
// canonical line (obs::json sorted-key form) — the generator and the
// daemon both speak through this one type, so a recorded log served
// again with `pfaird --input=FILE` answers byte-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace pfair::serve {

enum class RequestOp : std::uint8_t { kJoin, kLeave, kReweight, kQuery, kAdvance, kBatch };

/// The "op" name of a request ("unknown" past the enum).
[[nodiscard]] std::string_view op_name(RequestOp op) noexcept;
/// op_name() as a C string.
[[nodiscard]] const char* to_string(RequestOp op) noexcept;

struct Request {
  RequestOp op = RequestOp::kQuery;
  std::int64_t execution = 0;  ///< join/reweight
  std::int64_t period = 0;     ///< join/reweight
  TaskId task = kNoTask;       ///< leave/reweight target
  Time to = 0;                 ///< advance target
  std::string name;            ///< join only, optional
  std::vector<Request> batch;  ///< batch sub-requests (non-empty, never nested)
};

/// Parses one JSONL request line.  On failure returns nullopt and, when
/// `error` is non-null, stores a stable one-token reason
/// ("bad-json", "bad-op", "bad-field") for the daemon's error reply.
[[nodiscard]] std::optional<Request> parse_request(std::string_view line,
                                                   std::string* error = nullptr);

/// Canonical JSONL form of `r` (sorted keys, no trailing newline).
/// parse_request(dump_request(r)) round-trips exactly.
[[nodiscard]] std::string dump_request(const Request& r);

/// Rewrites a JSONL request stream into batch lines of up to `size`
/// sub-requests each, in order (`pfaird --gen-requests
/// --batch-requests`, tests and benches wrap streams with it).  Lines
/// that fail to parse or are already batches pass through unchanged,
/// flushing the group built so far.  `size` < 2 returns the input.
[[nodiscard]] std::string batch_requests(std::string_view jsonl, std::size_t size);

/// Deterministic request-stream generator for benches and the CI smoke
/// test: a seeded mix of joins and reweights of previously joined ids
/// (each task's utilization drawn from [0.02, 0.25 x `load`], the upper
/// end kept within [0.05, 1]), leaves, periodic queries, and monotone
/// advances.
struct GenConfig {
  std::size_t count = 1000;     ///< request lines to emit
  std::uint64_t seed = 42;      ///< Rng seed; same seed => same bytes
  double load = 1.5;            ///< scales the per-task utilization range
  std::int64_t max_period = 40;  ///< periods drawn from [2, max_period]
};

/// Throws std::invalid_argument unless 2 <= max_period <= 9e15, the
/// periods parse_request accepts.
[[nodiscard]] std::string generate_requests(const GenConfig& config);

}  // namespace pfair::serve
