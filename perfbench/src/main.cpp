// cmetile-perfbench: the measuring side of the repo benchmark.
//
//   cmetile-perfbench solve   --seed=N --out=FILE --setup-reps=N --seconds=S
//                             [--traced [--replay-all]]
//   cmetile-perfbench loadgen --daemon=H:P --seed=N --out=FILE --rate=R --count=N
//                             --prefill=N [--prefill-only] [--codec-dir=DIR]
//   cmetile-perfbench figure  --seed=N --out=FILE --work-dir=DIR --setup-reps=N
//                             --seconds=S --workers=N
//
// `solve` and `figure` with --setup-only time their set-up and stop
// (--seconds and --workers are then not needed).
//
// Each subcommand runs one workload (or the load generator of `serve`),
// checks every answer, and writes the raw samples as JSON; perfbench/run.py
// orchestrates the processes and reduces the samples to metrics. The
// binary doubles as its own sweep pipe worker (`--sweep-worker`).

#include <exception>
#include <iostream>

#include "common.hpp"
#include "sweep/scheduler.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  // Pipe-worker mode first: a spawned worker must speak only the protocol.
  sweep::maybe_run_worker(argc, argv);
  if (argc < 2) {
    std::cerr << "usage: cmetile-perfbench solve|loadgen|figure --flag=value ...\n";
    return 2;
  }
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "solve") return run_solve(args);
    if (command == "loadgen") return run_loadgen(args);
    if (command == "figure") return run_figure(args);
  } catch (const std::exception& e) {
    std::cerr << "cmetile-perfbench " << command << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "cmetile-perfbench: unknown command " << command << "\n";
  return 2;
}
