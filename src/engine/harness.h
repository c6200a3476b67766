// Shared experiment harness for the bench binaries.
//
// Every bench used to hand-roll positional horizon/trials/seed parsing
// and printf-only output.  The harness gives them all:
//   - uniform flag parsing: --trials=N --horizon=N --seed=N --json
//     (also accepted as "--flag N"; unknown flags are ignored so
//     google-benchmark's --benchmark_* flags pass through), plus
//     arbitrary bench-specific flags via flag()/flag_double();
//   - per-point result rows holding scalars or RunningStats (mean and
//     99% confidence interval, the paper's reporting convention);
//   - machine-readable output: with --json, finish() writes
//     BENCH_<name>.json next to the binary so the performance
//     trajectory of every bench is trackable across PRs.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "obs/histogram.h"
#include "util/stats.h"

namespace pfair::engine {

class ExperimentHarness {
 public:
  /// `name` keys the JSON file (BENCH_<name>.json).  Flags are parsed
  /// from argv immediately; parsing never fails (malformed values fall
  /// back to defaults at lookup time).
  ExperimentHarness(std::string name, int argc, char** argv);

  // --- common flags (defaults are per-bench) ---
  [[nodiscard]] long long trials(long long fallback) const;
  [[nodiscard]] long long horizon(long long fallback) const;
  [[nodiscard]] std::uint64_t seed(std::uint64_t fallback = 1) const;
  [[nodiscard]] bool json() const noexcept { return json_; }

  /// --prof attaches self-profiling (obs::prof::set_enabled(true) at
  /// parse time).  Bare --prof folds the MetricsRegistry snapshot into
  /// the BENCH JSON as a "prof" member; --prof=FILE writes the snapshot
  /// to FILE and leaves the report byte-identical to a prof-off run
  /// (the form CI's prof-parity cmp uses).  Never echoed into params.
  [[nodiscard]] bool prof() const noexcept { return prof_; }

  /// --jobs=N worker threads for parallel sweeps (engine/parallel.h);
  /// absent or N <= 0 resolves to hardware_concurrency.  Deliberately
  /// NOT echoed into the JSON params: the determinism guarantee is that
  /// --jobs=1 and --jobs=N reports are byte-identical, so the worker
  /// count must not appear in the report.
  [[nodiscard]] int jobs() const;

  /// Any --key=value flag as integer / double; `fallback` when absent
  /// or malformed.  Looked-up flags are echoed into the JSON "params"
  /// (sorted by key, first lookup wins).  Lookups are thread-safe, so
  /// flags may be read from ParallelSweep trial functions — though
  /// flags read only after finish() wrote the report cannot appear in
  /// it; read flags up front.
  [[nodiscard]] long long flag(const std::string& key, long long fallback) const;
  [[nodiscard]] double flag_double(const std::string& key, double fallback) const;
  [[nodiscard]] std::string flag_string(const std::string& key,
                                        const std::string& fallback) const;

  // --- result recording ---
  struct Value {
    std::variant<double, long long, std::string, RunningStats, obs::Histogram> v;
  };
  class Row {
   public:
    Row& set(const std::string& key, double v);
    Row& set(const std::string& key, long long v);
    Row& set(const std::string& key, const std::string& v);
    /// Expands to {"mean":..., "ci99":..., "min":..., "max":..., "n":...}.
    Row& set(const std::string& key, const RunningStats& s);
    /// Expands to {"edges":[...], "counts":[...], "underflow":...,
    /// "overflow":..., "total":..., "p50":..., "p99":...}.
    Row& set(const std::string& key, const obs::Histogram& h);

   private:
    friend class ExperimentHarness;
    std::vector<std::pair<std::string, Value>> cells_;
  };

  /// Starts a new result row (one per plotted point).
  Row& add_row();

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Destination of the JSON report: --json=FILE if given, else
  /// BENCH_<name>.json in the working directory.
  [[nodiscard]] std::string json_path() const;

  /// Writes the JSON report when --json was passed.  Returns
  /// `exit_code` (or 1 if the report could not be written) so harness
  /// mains can end with `return h.finish(failures);`.
  int finish(int exit_code = 0);

  /// Serializes the report (used by finish() and the unit tests).
  [[nodiscard]] std::string to_json() const;

  /// Runs the bench `body` (it returns its exit code) and finish()es
  /// with that code.  A configuration the simulator factory refuses
  /// (std::invalid_argument, e.g. --processors=0) prints the reason on
  /// stderr and returns 1, as pfaird and pfair_trace do.
  template <class Body>
  int run(Body&& body) {
    try {
      return finish(std::forward<Body>(body)());
    } catch (const std::invalid_argument& e) {
      return refuse(e);
    }
  }

 private:
  int refuse(const std::invalid_argument& e) const;
  [[nodiscard]] const std::string* raw_flag(const std::string& key) const;
  void record_param(const std::string& key, Value v) const;

  std::string name_;
  bool json_ = false;
  bool prof_ = false;
  std::string json_file_;                                  ///< --json=FILE override
  std::string prof_file_;                                  ///< --prof=FILE destination
  std::vector<std::pair<std::string, std::string>> args_;  ///< parsed --key value pairs
  // Flags looked up so far, with the values resolved (echoed as
  // params).  A sorted map guarded by a mutex: lookups can come from
  // worker threads in any order, but the JSON echo must be identical
  // run-to-run, so serialization order is the key order, not the
  // lookup order, and repeat lookups collapse to one entry.
  mutable std::mutex params_mutex_;
  mutable std::map<std::string, Value> params_;
  std::vector<Row> rows_;
};

}  // namespace pfair::engine
