// The `figure` workload: reproduce Figures 8 and 9 (27 bars x 8 KB and
// 32 KB direct-mapped) end to end, repeated while another repetition ends
// nearer the time budget than stopping does. One repetition is
//   1. a cold sweep::run_sweep with two pipe workers into a fresh cache;
//   2. a warm replay of the same cells, which must be all cache hits with
//      rows byte-identical to the cold ones;
//   3. exact-simulator verification of every row whose access count is
//      under the cutoff: cache::simulate_nest untiled and
//      transform::simulate_tiled at the chosen tiles, rows verified
//      concurrently on up to hardware-concurrency threads.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iostream>
#include <thread>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "cache/simulator.hpp"
#include "common.hpp"
#include "kernels/kernels.hpp"
#include "support/rng.hpp"
#include "sweep/scheduler.hpp"
#include "transform/tiling.hpp"

namespace perfbench {

namespace {

struct Verified {
  double sim_s = 0.0;
  i64 accesses = 0;  ///< simulated accesses, both simulations
  double before_repl = 0.0;
  double after_repl = 0.0;
  double model_repl = 0.0;  ///< the CME estimate at the chosen tiles
};

/// The figure's cells and, per cell, its nest's access count.
struct FigureSetup {
  sweep::SweepSpec spec;
  std::vector<sweep::SweepCell> cells;
  std::vector<i64> accesses;
};

/// Rows with fewer accesses than this are verified by the exact simulator:
/// 38 of the 54 rows, peak resident set about 213 MB. The simulator keeps
/// every touched line, so its memory grows with the arrays (a 20 000 000
/// cutoff verifies 44 rows at 584 MB).
constexpr i64 kCutoff = 10'000'000;

FigureSetup figure_setup(std::uint64_t seed) {
  FigureSetup setup;
  setup.spec.kind = sweep::SweepKind::Tiling;
  setup.spec.entries = kernels::figure_bars();
  setup.spec.caches = {cache::CacheConfig{8 * 1024, 32, 1}, cache::CacheConfig{32 * 1024, 32, 1}};
  setup.spec.options.seed = derive_seed(seed, 0xF16);
  setup.cells = setup.spec.cells();
  for (const sweep::SweepCell& cell : setup.cells)
    setup.accesses.push_back(kernels::build_kernel(cell.entry.name, cell.entry.size).access_count());
  return setup;
}

std::string row_bytes(sweep::CellResult result) {
  result.from_cache = false;
  return sweep::json_of_result(result).dump();
}

}  // namespace

int run_figure(const CliArgs& args) {
  const std::uint64_t seed = (std::uint64_t)required_int(args, "seed");
  const std::string out_path = args.get("out", "");
  const std::string work_dir = args.get("work-dir", "");
  const i64 setup_reps = std::max<i64>(1, required_int(args, "setup-reps"));
  if (out_path.empty() || work_dir.empty())
    throw std::runtime_error("--out=FILE and --work-dir=DIR are required");
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());

  // Set-up: expand the figure's cells and size every nest.
  std::vector<double> setup_s;
  FigureSetup setup;
  for (i64 r = 0; r < setup_reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    setup = figure_setup(seed);
    setup_s.push_back(seconds_since(t0));
  }
  if (args.get_bool("setup-only", false)) {
    sweep::Json doc = sweep::Json::object();
    doc.set("setup_s", json_of_doubles(setup_s));
    return write_json(out_path, doc) ? 0 : 1;
  }
  const double min_seconds = required_double(args, "seconds");
  const int workers = (int)required_int(args, "workers");
  // Largest rows first: the longest simulations overlap at the start, which
  // shortens the tail and makes the peak memory a function of the row set.
  std::vector<std::size_t> verify_rows;
  for (std::size_t i = 0; i < setup.cells.size(); ++i)
    if (setup.accesses[i] < kCutoff) verify_rows.push_back(i);
  std::stable_sort(verify_rows.begin(), verify_rows.end(), [&](std::size_t a, std::size_t b) {
    return setup.accesses[a] > setup.accesses[b];
  });

  i64 failed = 0;
  std::vector<double> figure_s, cold_s, replay_s, verify_s, cell_ms, sim_cut, model_err_pp;
  std::vector<double> remote_share, row_sim_ms;
  double sim_s = 0.0;
  i64 sim_accesses = 0;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep == 0 || seconds_since(start) + figure_s.back() / 2 < min_seconds; ++rep) {
    sweep::SchedulerOptions options;
    options.cache_dir = work_dir + "/figure-cache-" + std::to_string(rep);
    std::filesystem::remove_all(options.cache_dir);
    options.jobs = workers;

    const Clock::time_point t0 = Clock::now();
    const sweep::SweepRun cold = sweep::run_sweep(setup.spec, options);
    const Clock::time_point t1 = Clock::now();
    const sweep::SweepRun warm = sweep::run_sweep(setup.spec, options);
    const Clock::time_point t2 = Clock::now();

    if (cold.stats.cache_hits != 0 || cold.stats.computed != setup.cells.size()) {
      std::cerr << "figure: cold sweep was not cold\n";
      ++failed;
    }
    if (warm.stats.cache_hits != setup.cells.size()) {
      std::cerr << "figure: replay had " << warm.stats.cache_hits << "/" << setup.cells.size()
                << " cache hits\n";
      ++failed;
    }
    for (std::size_t i = 0; i < setup.cells.size(); ++i) {
      if (row_bytes(cold.results[i]) != row_bytes(warm.results[i])) {
        std::cerr << "figure: replayed row " << cold.results[i].tiling.label << " differs\n";
        ++failed;
      }
      cell_ms.push_back(1e3 * cold.results[i].tiling.seconds);
    }
    remote_share.push_back(cold.stats.computed ? (double)cold.stats.remote /
                                                     (double)cold.stats.computed
                                               : 0.0);

    // Verification, rows pulled from a shared counter by `threads` threads;
    // a row that throws is counted as failed.
    std::vector<Verified> verified(verify_rows.size());
    std::atomic<std::size_t> next{0};
    std::atomic<i64> thrown{0};
    const auto verify = [&] {
      for (std::size_t k; (k = next.fetch_add(1)) < verify_rows.size();) try {
        const std::size_t i = verify_rows[k];
        const sweep::SweepCell& cell = setup.cells[i];
        const core::TilingRow& row = cold.results[i].tiling;
        const cache::CacheConfig& config = cell.hierarchy.levels.front().config;
        const ir::LoopNest nest = kernels::build_kernel(cell.entry.name, cell.entry.size);
        const ir::MemoryLayout layout(nest);
        const Clock::time_point s0 = Clock::now();
        const cache::MissStats before = cache::simulate_nest(nest, layout, config).back();
        const cache::MissStats after = transform::simulate_tiled(nest, layout, config, row.tiles).back();
        verified[k] = Verified{seconds_since(s0), before.accesses + after.accesses,
                               before.replacement_ratio(), after.replacement_ratio(),
                               row.tiling_repl};
      } catch (const std::exception& e) {
        std::cerr << "figure: verifying row " << k << ": " << e.what() << "\n";
        ++thrown;
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::min<std::size_t>(threads, verify_rows.size()); ++t)
      pool.emplace_back(verify);
    for (std::thread& t : pool) t.join();
    const Clock::time_point t3 = Clock::now();
    failed += thrown;

    for (const Verified& v : verified) {
      row_sim_ms.push_back(1e3 * v.sim_s);
      if (v.before_repl > 0.0) sim_cut.push_back(1.0 - v.after_repl / v.before_repl);
      model_err_pp.push_back(100.0 * std::abs(v.model_repl - v.after_repl));
      sim_s += v.sim_s;
      sim_accesses += v.accesses;
    }
#ifdef __GLIBC__
    // Hand the simulators' freed memory back, so the next repetition's
    // peak resident set starts where this one's did.
    malloc_trim(0);
#endif
    cold_s.push_back(seconds_between(t0, t1));
    replay_s.push_back(seconds_between(t1, t2));
    verify_s.push_back(seconds_between(t2, t3));
    figure_s.push_back(seconds_between(t0, t3));
  }

  sweep::Json doc = sweep::Json::object();
  doc.set("setup_s", json_of_doubles(setup_s));
  doc.set("cells", sweep::Json::integer((i64)setup.cells.size()));
  doc.set("verified_rows", sweep::Json::integer((i64)verify_rows.size()));
  doc.set("cutoff", sweep::Json::integer(kCutoff));
  doc.set("threads", sweep::Json::integer((i64)threads));
  doc.set("figure_s", json_of_doubles(figure_s));
  doc.set("cold_s", json_of_doubles(cold_s));
  doc.set("replay_s", json_of_doubles(replay_s));
  doc.set("verify_s", json_of_doubles(verify_s));
  doc.set("cell_ms", json_of_doubles(cell_ms));
  doc.set("remote_share", json_of_doubles(remote_share));
  doc.set("row_sim_ms", json_of_doubles(row_sim_ms));
  doc.set("sim_cut", json_of_doubles(sim_cut));
  doc.set("model_err_pp", json_of_doubles(model_err_pp));
  doc.set("sim_s", sweep::Json::number(sim_s));
  doc.set("sim_accesses", sweep::Json::integer(sim_accesses));
  doc.set("failed", sweep::Json::integer(failed));
  return write_json(out_path, doc) ? 0 : 1;
}

}  // namespace perfbench
