// The `solve` workload: the 114-request cross product answered as one
// batch, closed loop, the way core/experiment.cpp answers a figure's rows:
// parallel_for across requests (OpenMP threads = cores), so each GA
// evaluates its population serially. A stolen core then delays one
// request, not every generation of every request.
//
// It times each request and checks each answer. Then every third request
// (rotating per kernel, so every kind and geometry is covered) is answered
// a second time the other way round: one call at a time, its GA parallel
// across the population. That answer must have the same outcome, and those
// calls give the single-call latency. Traced, with --replay-all every
// request gets the second answer (core.counter_drift_ratio counts the
// GaResult::eval_cache_hits that differ), and it runs two more ways:
//   B. the batch again with the obs registry on: counter totals and the
//      traced wall time (obs.trace_overhead); the answers must not change;
//   C. unseeded (seed_population = false), once through core::optimize
//      and once replayed through the public layer calls — legality, the
//      objective constructor, the GA over a timing wrapper of the
//      objective, evaluate_hierarchy — which must give the same answer.
// The warm-seed heuristics (baselines::*_tiles) are timed on the side.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>

#include "baselines/analytic.hpp"
#include "common.hpp"
#include "core/objective.hpp"
#include "kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "sweep/request_json.hpp"
#include "transform/legality.hpp"

namespace perfbench {

sweep::Json json_of_doubles(const std::vector<double>& values) {
  sweep::Json out = sweep::Json::array();
  for (const double v : values) out.push(sweep::Json::number(v));
  return out;
}

bool write_json(const std::string& path, const sweep::Json& doc) {
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) std::cerr << "cmetile-perfbench: cannot write " << path << "\n";
  return (bool)out;
}

i64 required_int(const CliArgs& args, const std::string& key) {
  if (!args.has(key)) throw std::runtime_error("--" + key + " is required");
  return args.get_int_strict(key, 0);
}

double required_double(const CliArgs& args, const std::string& key) {
  if (!args.has(key)) throw std::runtime_error("--" + key + " is required");
  return args.get_double_strict(key, 0.0);
}

std::vector<SolveCase> solve_cases(std::uint64_t seed) {
  std::vector<kernels::KernelSpec> specs = kernels::registry();
  for (const kernels::KernelSpec& spec : kernels::extended_registry()) specs.push_back(spec);
  const cache::CacheConfig l1{8 * 1024, 32, 1};
  const std::vector<std::pair<std::string, cache::Hierarchy>> geometries = {
      {"l1", cache::Hierarchy::single(l1)},
      {"l1l2", cache::Hierarchy::two_level(l1, 10.0, cache::CacheConfig{64 * 1024, 32, 4}, 80.0)},
  };
  std::vector<SolveCase> cases;
  for (const kernels::KernelSpec& spec : specs) {
    const ir::LoopNest nest = kernels::build_kernel(spec.name, spec.sized ? spec.default_size : 0);
    for (const core::OptimizeKind kind :
         {core::OptimizeKind::Tiling, core::OptimizeKind::Padding, core::OptimizeKind::Joint}) {
      for (const auto& [name, hierarchy] : geometries) {
        const std::uint64_t index = cases.size();
        core::OptimizerOptions options;
        options.ga.seed = derive_seed(seed, index, 0x6A);
        options.objective.estimator.seed = derive_seed(seed, index, 0xE57);
        cases.push_back({spec.name + "/" + core::to_string(kind) + "/" + name, name,
                         core::OptimizeRequest{kind, nest, {}, hierarchy, options}});
      }
    }
  }
  return cases;
}

std::string outcome_signature(const core::OptimizeResponse& response) {
  const sweep::Json full = sweep::json_of_response(response);
  sweep::Json out = sweep::Json::object();
  for (const char* key : {"kind", "tiles", "pads_intra", "pads_inter", "before", "after"})
    out.set(key, *full.find(key));
  const sweep::Json& ga = *full.find("ga");
  for (const char* key : {"best_cost", "generations", "evaluations"}) out.set(key, *ga.find(key));
  return out.dump();
}

std::string check_answer(const core::OptimizeRequest& request,
                         const core::OptimizeResponse& response) {
  const ir::LoopNest& nest = request.nest;
  if (response.kind != request.kind) return "answer has the wrong kind";
  const double before = response.before.weighted_cost;
  const double after = response.after.weighted_cost;
  if (!std::isfinite(before) || !std::isfinite(after) || after < 0.0) return "non-finite cost";
  if (after > before * (1.0 + 1e-9) + 1e-9) return "chosen cost exceeds the baseline";
  if (request.kind != core::OptimizeKind::Padding) {
    const std::vector<i64> trips = nest.trip_counts();
    const std::vector<i64>& tiles = response.tiles.t;
    if (tiles.size() != trips.size()) return "tile vector has the wrong rank";
    for (std::size_t d = 0; d < tiles.size(); ++d)
      if (tiles[d] < 1 || tiles[d] > trips[d]) return "tile outside the iteration domain";
    if (!transform::tile_vector_legal(transform::risky_dependence_vectors(nest), trips, tiles))
      return "tiles reorder a dependence illegally";
  }
  if (request.kind != core::OptimizeKind::Tiling) {
    const transform::PadVector& pads = response.pads;
    if (pads.intra.size() != nest.arrays.size() || pads.inter.size() != nest.arrays.size())
      return "pad vector has the wrong rank";
    for (std::size_t a = 0; a < pads.intra.size(); ++a) {
      if (pads.intra[a] < 0 || pads.intra[a] > request.options.max_intra_pad_elems ||
          pads.inter[a] < 0 || pads.inter[a] > request.options.max_inter_pad_units)
        return "pad outside the search bounds";
    }
  }
  return {};
}

namespace {

/// One request in this many is answered a second time (unless every one is).
constexpr std::size_t kSingleStride = 3;

/// obs counters totalled over the traced batch.
constexpr const char* kCounters[] = {
    "cme.classify.points",    "cme.classify.batches", "cme.classify.simd_batches",
    "cme.probes",             "cme.probe_cache.hits", "cme.eval_cache.lookups",
    "cme.eval_cache.hits",    "objective.evals",      "objective.illegal",
};

struct Pass {
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< by case index
  std::vector<core::OptimizeResponse> responses;
  std::vector<std::string> errors;      ///< by case index: what core::optimize threw
  std::map<std::string, i64> counters;  ///< totals over the pass, when read
};

/// Answer cases[i] for each i in `ids`. A batch runs them in parallel
/// across requests (nested OpenMP regions are serialized, so each GA runs
/// on one thread); otherwise they run one at a time, each GA parallel
/// across its population.
Pass run_pass(const std::vector<SolveCase>& cases, const std::vector<std::size_t>& ids,
              bool seeded, bool batch, bool read_counters) {
  Pass pass;
  pass.latency_ms.resize(cases.size());
  pass.responses.resize(cases.size());
  pass.errors.resize(cases.size());
  obs::Registry& registry = obs::Registry::instance();
  if (read_counters) registry.reset();
  // An exception must not leave an OpenMP region, so it is kept as an error.
  const auto solve = [&](std::size_t k) {
    const std::size_t i = ids[k];
    core::OptimizeRequest request = cases[i].request;
    request.options.seed_population = seeded;
    const Clock::time_point t0 = Clock::now();
    try {
      pass.responses[i] = core::optimize(request);
    } catch (const std::exception& e) {
      pass.errors[i] = std::string("core::optimize threw: ") + e.what();
    }
    pass.latency_ms[i] = 1e3 * seconds_since(t0);
  };
  const Clock::time_point start = Clock::now();
  if (batch) {
    parallel_for(ids.size(), solve);
  } else {
    for (std::size_t k = 0; k < ids.size(); ++k) solve(k);
  }
  pass.wall_s = seconds_since(start);
  if (read_counters) {
    const obs::MetricsSnapshot snapshot = registry.snapshot();
    for (const char* name : kCounters) pass.counters[name] = snapshot.counter(name);
  }
  return pass;
}

/// First failed check of pass `a`'s answer to cases[i] against pass `b`'s,
/// which must have the same outcome fields; empty if none failed.
std::string compare_answers(const std::vector<SolveCase>& cases, std::size_t i, const Pass& a,
                            const Pass& b, const std::string& how) {
  if (!a.errors[i].empty()) return a.errors[i];
  if (!b.errors[i].empty()) return b.errors[i];
  if (outcome_signature(a.responses[i]) != outcome_signature(b.responses[i]))
    return "answered differently " + how;
  return check_answer(cases[i].request, a.responses[i]);
}

/// Per-layer timings of one replayed request.
struct Replay {
  core::OptimizeResponse response;
  double legality_us = -1.0;  ///< < 0: not a tiling request
  double seed_us = -1.0;      ///< < 0: not a tiling request
  double bind_ms = 0.0;
  double ga_self_ms = 0.0;
  std::vector<double> eval_us;
};

/// Run the GA over a thread-safe timing wrapper of `objective`: every
/// call's interval is logged, and the GA's self time is its wall time
/// minus the union of those intervals.
template <typename ObjectiveT>
ga::GaResult timed_ga(const ObjectiveT& objective, const ga::GaOptions& options, Replay& replay) {
  std::mutex mutex;
  std::vector<std::pair<double, double>> calls;
  const Clock::time_point origin = Clock::now();
  const auto wrapped = [&](std::span<const i64> values) {
    const double begin = seconds_since(origin);
    const double cost = objective(values);
    const double end = seconds_since(origin);
    const std::lock_guard<std::mutex> lock(mutex);
    calls.emplace_back(begin, end);
    return cost;
  };
  ga::GeneticOptimizer optimizer(ga::Encoding(objective.domains()), options);
  ga::GaResult result = optimizer.run(wrapped);
  const double wall = seconds_since(origin);
  std::sort(calls.begin(), calls.end());
  double covered = 0.0, open_begin = 0.0, open_end = -1.0;
  for (const auto& [begin, end] : calls) {
    replay.eval_us.push_back(1e6 * (end - begin));
    if (begin > open_end) {
      if (open_end > open_begin) covered += open_end - open_begin;
      open_begin = begin;
      open_end = end;
    } else {
      open_end = std::max(open_end, end);
    }
  }
  if (open_end > open_begin) covered += open_end - open_begin;
  replay.ga_self_ms = 1e3 * std::max(0.0, wall - covered);
  return result;
}

/// core::optimize decomposed into its public layer calls (unseeded
/// requests only: the GA gets no warm starts, so the heuristics are timed
/// but not fed in).
Replay replay_request(const core::OptimizeRequest& request) {
  const ir::LoopNest& nest = request.nest;
  const core::OptimizerOptions& options = request.options;
  Replay replay;
  replay.response.kind = request.kind;
  if (request.kind != core::OptimizeKind::Padding) {
    Clock::time_point t0 = Clock::now();
    const transform::LegalityReport report = transform::check_tiling_legality(nest);
    replay.legality_us = 1e6 * seconds_since(t0);
    if (options.check_legality && report.verdict == transform::Legality::Unknown)
      throw std::runtime_error("replay: tiling legality unknown for " + nest.name);
    const ir::MemoryLayout layout = request.kind == core::OptimizeKind::Tiling
                                        ? ir::MemoryLayout(nest, request.layout)
                                        : ir::MemoryLayout(nest);
    t0 = Clock::now();
    for (std::size_t l = 0; l < request.hierarchy.depth(); ++l) {
      const cache::CacheConfig config = request.hierarchy.effective_config(l);
      baselines::lrw_tiles(nest, layout, config);
      baselines::tss_tiles(nest, layout, config);
      baselines::sarkar_megiddo_tiles(nest, layout, config);
    }
    replay.seed_us = 1e6 * seconds_since(t0);
  }
  core::OptimizeResponse& out = replay.response;
  const Clock::time_point bind = Clock::now();
  switch (request.kind) {
    case core::OptimizeKind::Tiling: {
      const core::TilingObjective objective(nest, ir::MemoryLayout(nest, request.layout),
                                            request.hierarchy, options.objective);
      replay.bind_ms = 1e3 * seconds_since(bind);
      out.ga = timed_ga(objective, options.ga, replay);
      out.tiles = transform::TileVector::clamped(out.ga.best_values, nest);
      out.before = objective.evaluate_hierarchy(transform::TileVector::untiled(nest));
      out.after = objective.evaluate_hierarchy(out.tiles);
      break;
    }
    case core::OptimizeKind::Padding: {
      const core::PaddingObjective objective(nest, request.hierarchy,
                                             transform::TileVector::untiled(nest),
                                             options.max_intra_pad_elems,
                                             options.max_inter_pad_units, options.objective);
      replay.bind_ms = 1e3 * seconds_since(bind);
      out.ga = timed_ga(objective, options.ga, replay);
      out.pads = objective.unpack(out.ga.best_values);
      out.before = objective.evaluate_hierarchy(transform::PadVector::none(nest));
      out.after = objective.evaluate_hierarchy(out.pads);
      break;
    }
    case core::OptimizeKind::Joint: {
      const core::JointObjective objective(nest, request.hierarchy, options.max_intra_pad_elems,
                                           options.max_inter_pad_units, options.objective);
      replay.bind_ms = 1e3 * seconds_since(bind);
      out.ga = timed_ga(objective, options.ga, replay);
      const core::JointObjective::Decoded best = objective.unpack(out.ga.best_values);
      out.tiles = best.tiles;
      out.pads = best.pads;
      out.before = objective.evaluate_hierarchy(core::JointObjective::Decoded{
          transform::TileVector::untiled(nest), transform::PadVector::none(nest)});
      out.after = objective.evaluate_hierarchy(best);
      break;
    }
  }
  return replay;
}

}  // namespace

int run_solve(const CliArgs& args) {
  const std::uint64_t seed = (std::uint64_t)required_int(args, "seed");
  const std::string out_path = args.get("out", "");
  const i64 setup_reps = std::max<i64>(1, required_int(args, "setup-reps"));
  const bool replay_all = args.get_bool("replay-all", false);
  const bool traced = args.get_bool("traced", false);
  if (out_path.empty()) throw std::runtime_error("--out=FILE is required");

  // Set-up: build the request set (kernels, hierarchies, seeds).
  std::vector<double> setup_s;
  std::vector<SolveCase> cases;
  for (i64 r = 0; r < setup_reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    cases = solve_cases(seed);
    setup_s.push_back(seconds_since(t0));
  }
  if (args.get_bool("setup-only", false)) {
    sweep::Json doc = sweep::Json::object();
    doc.set("setup_s", json_of_doubles(setup_s));
    return write_json(out_path, doc) ? 0 : 1;
  }
  const double min_seconds = required_double(args, "seconds");

  // Batch order: the costliest classes first — two-level geometry before
  // one, joint before padding before tiling — so the batch does not end
  // waiting on one long request. The order is the same for every seed.
  std::vector<std::size_t> order(cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto cost_class = [&](std::size_t i) {
    const core::OptimizeRequest& request = cases[i].request;
    return std::pair<std::size_t, int>(request.hierarchy.depth(), (int)request.kind);
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cost_class(a) > cost_class(b);
  });

  // Closed loop: whole batches, another one only while it would end nearer
  // the time budget than stopping now does.
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(run_pass(cases, order, true, true, false));
  } while (seconds_since(start) + passes.back().wall_s / 2 < min_seconds);
  const Pass& first = passes.front();

  // The second answer, one request at a time, for one request in
  // kSingleStride (every request with --replay-all), rotating the pick per
  // kernel so every kind and geometry is covered. These are also the single
  // calls whose latency solve reports; the traced pass replays the same set.
  const std::size_t stride = replay_all ? 1 : kSingleStride;
  std::vector<std::size_t> rechecked;
  for (std::size_t i = 0; i < cases.size(); ++i)
    if (i % stride == (i / 6) % stride) rechecked.push_back(i);
  const Pass second = run_pass(cases, rechecked, true, false, false);
  std::vector<std::string> errors(cases.size());
  i64 drifted = 0;
  for (const std::size_t i : rechecked) {
    errors[i] = compare_answers(cases, i, first, second, "one request at a time");
    drifted += errors[i].empty() &&
               first.responses[i].ga.eval_cache_hits != second.responses[i].ga.eval_cache_hits;
  }

  sweep::Json requests = sweep::Json::array();
  i64 failed = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const core::OptimizeResponse& response = first.responses[i];
    std::string& error = errors[i];
    for (const Pass& pass : passes)
      if (error.empty()) error = compare_answers(cases, i, pass, first, "in another batch");
    if (!error.empty()) ++failed;
    sweep::Json row = sweep::Json::object();
    row.set("label", sweep::Json::string(cases[i].label));
    row.set("kind", sweep::Json::string(core::to_string(cases[i].request.kind)));
    row.set("geometry", sweep::Json::string(cases[i].geometry));
    std::vector<double> latency;
    for (const Pass& pass : passes) latency.push_back(pass.latency_ms[i]);
    row.set("latency_ms", json_of_doubles(latency));
    row.set("before", sweep::Json::number(response.before.weighted_cost));
    row.set("after", sweep::Json::number(response.after.weighted_cost));
    row.set("evaluations", sweep::Json::integer(response.ga.evaluations));
    row.set("generations", sweep::Json::integer(response.ga.generations));
    row.set("objective_calls", sweep::Json::integer(response.ga.objective_calls));
    row.set("error", sweep::Json::string(error));
    requests.push(std::move(row));
  }
  std::vector<double> pass_wall;
  for (const Pass& pass : passes) pass_wall.push_back(pass.wall_s);

  sweep::Json doc = sweep::Json::object();
  doc.set("threads", sweep::Json::integer(parallel_threads()));
  doc.set("setup_s", json_of_doubles(setup_s));
  doc.set("pass_wall_s", json_of_doubles(pass_wall));
  std::vector<double> single_ms;
  for (const std::size_t i : rechecked) single_ms.push_back(second.latency_ms[i]);
  doc.set("single_ms", json_of_doubles(single_ms));
  doc.set("requests", std::move(requests));

  if (traced) {
    // B: the same batch with the obs registry on.
    obs::set_enabled(true);
    const Pass traced_pass = run_pass(cases, order, true, true, true);
    obs::set_enabled(false);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::string error = compare_answers(cases, i, traced_pass, first, "when traced");
      if (!error.empty()) {
        std::cerr << "solve: " << cases[i].label << ": " << error << "\n";
        ++failed;
      }
    }

    // C: unseeded, through core::optimize and through the layer replay.
    const Pass unseeded = run_pass(cases, rechecked, false, false, false);
    std::vector<double> legality_us, seed_us, bind_ms, ga_self_ms, eval_us;
    for (const std::size_t i : rechecked) {
      core::OptimizeRequest request = cases[i].request;
      request.options.seed_population = false;
      const Replay replay = replay_request(request);
      if (!unseeded.errors[i].empty() ||
          outcome_signature(replay.response) != outcome_signature(unseeded.responses[i])) {
        std::cerr << "solve: layer replay of " << cases[i].label
                  << " differs from core::optimize\n";
        ++failed;
      }
      if (replay.legality_us >= 0.0) legality_us.push_back(replay.legality_us);
      if (replay.seed_us >= 0.0) seed_us.push_back(replay.seed_us);
      bind_ms.push_back(replay.bind_ms);
      ga_self_ms.push_back(replay.ga_self_ms);
      eval_us.insert(eval_us.end(), replay.eval_us.begin(), replay.eval_us.end());
    }

    sweep::Json layers = sweep::Json::object();
    layers.set("traced_wall_s", sweep::Json::number(traced_pass.wall_s));
    layers.set("untraced_wall_s", sweep::Json::number(first.wall_s));
    layers.set("drifted", sweep::Json::integer(drifted));
    layers.set("compared", sweep::Json::integer((i64)rechecked.size()));
    sweep::Json counters = sweep::Json::object();
    for (const auto& [name, value] : traced_pass.counters)
      counters.set(name, sweep::Json::integer(value));
    layers.set("counters", std::move(counters));
    layers.set("legality_us", json_of_doubles(legality_us));
    layers.set("seed_us", json_of_doubles(seed_us));
    layers.set("bind_ms", json_of_doubles(bind_ms));
    layers.set("ga_self_ms", json_of_doubles(ga_self_ms));
    layers.set("eval_us", json_of_doubles(eval_us));
    layers.set("replayed", sweep::Json::integer((i64)rechecked.size()));
    doc.set("traced", std::move(layers));
  }
  doc.set("failed", sweep::Json::integer(failed));
  return write_json(out_path, doc) ? 0 : 1;
}

}  // namespace perfbench
