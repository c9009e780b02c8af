#pragma once
// Shared pieces of cmetile-perfbench: the solve request set, the
// outcome signature used by every equality check, and small timing and
// JSON-output helpers. Each subcommand writes one JSON document of raw
// samples; perfbench/run.py turns them into metrics.

#include <chrono>
#include <string>
#include <vector>

#include "core/optimize.hpp"
#include "support/cli.hpp"
#include "sweep/json.hpp"

namespace perfbench {

using namespace cmetile;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) { return seconds_between(from, Clock::now()); }

sweep::Json json_of_doubles(const std::vector<double>& values);

/// Write `doc` to `path`; false (and a message on stderr) on failure.
bool write_json(const std::string& path, const sweep::Json& doc);

/// A flag perfbench/run.py always passes. Its value lives in run.py only,
/// so a missing flag is an error, not a second default that could drift.
i64 required_int(const CliArgs& args, const std::string& key);
double required_double(const CliArgs& args, const std::string& key);

/// One request of the `solve` cross product: a kernel at its default
/// size, an optimization kind and a cache geometry.
struct SolveCase {
  std::string label;     ///< "MXM/tiling/l1"
  std::string geometry;  ///< "l1" (8 KB direct-mapped) or "l1l2" (+ 64 KB 4-way)
  core::OptimizeRequest request;
};

/// The 114 requests: the 19 kernels (Table 1 plus LU and SYRK) x {tiling,
/// padding, joint} x {l1, l1l2}, paper GA defaults, GA and sampling seeds
/// derived from `seed`.
std::vector<SolveCase> solve_cases(std::uint64_t seed);

/// Canonical bytes of the outcome fields of a response: tiles, pads,
/// before/after estimates, best cost, generations and evaluations. The
/// schedule-dependent EvalCache counters are left out on purpose.
std::string outcome_signature(const core::OptimizeResponse& response);

/// Empty when `response` is a correct answer to `request`: the chosen
/// cost is no worse than the baseline, tiles lie in the domain and are a
/// legal reordering, pads lie within the search bounds. Otherwise the
/// first violated check.
std::string check_answer(const core::OptimizeRequest& request,
                         const core::OptimizeResponse& response);

int run_solve(const CliArgs& args);
int run_loadgen(const CliArgs& args);
int run_figure(const CliArgs& args);

}  // namespace perfbench
