// resparc-compile: compiles a bundled paper benchmark to a serialized
// CompiledProgram blob (.rcp) from the shell.
//
// Runs the full compiler pipeline — legalize, map, repair, route, cost,
// mandatory verify — and writes the blob to stdout or --out.  This is how the committed golden fixture
// (tests/data/golden_mnist_mlp_mca64.rcp) is regenerated after a format
// bump, and a convenient way to inspect what a strategy produces:
//
//   resparc-compile mnist-mlp                          blob on stdout
//   resparc-compile --strategy anneal mnist-cnn        searched mapping
//   resparc-compile --mca 128 --out m.rcp mnist-mlp    write to a file
//
// Strategies are paper, greedy-pack, anneal, beam, or auto for the best of
// the four.  Benchmarks are named by topology (mnist-mlp, mnist-cnn,
// svhn-mlp, svhn-cnn, cifar-mlp, cifar-cnn).  Exit status: 0 on success, 1 when
// compilation fails (including a verifier rejection), 2 on usage errors.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "compile/compiler.hpp"
#include "compile/program.hpp"
#include "compile/strategy.hpp"
#include "snn/benchmarks.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--strategy NAME] [--mca N] [--out FILE] benchmark\n"
            << "  --strategy NAME  mapping strategy: "
            << resparc::compile::strategy_name_list()
            << "\n                   (default paper; auto picks the best)\n"
            << "  --mca N          crossbar size (default 64)\n"
            << "  --out FILE       write the blob to FILE instead of stdout\n"
            << "  benchmark        mnist-mlp | mnist-cnn | svhn-mlp | "
            << "svhn-cnn | cifar-mlp | cifar-cnn\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string strategy = "paper";
  std::string out_path;
  std::string benchmark;
  std::size_t mca = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strategy") {
      if (i + 1 >= argc) return usage(argv[0]);
      strategy = argv[++i];
    } else if (arg == "--mca") {
      if (i + 1 >= argc) return usage(argv[0]);
      mca = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (mca == 0) return usage(argv[0]);
    } else if (arg == "--out") {
      if (i + 1 >= argc) return usage(argv[0]);
      out_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (benchmark.empty()) {
      benchmark = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (benchmark.empty()) return usage(argv[0]);

  try {
    const resparc::snn::Topology* topology = nullptr;
    const auto specs = resparc::snn::paper_benchmarks();
    for (const auto& spec : specs)
      if (spec.topology.name() == benchmark) topology = &spec.topology;
    if (topology == nullptr) {
      std::cerr << "resparc-compile: unknown benchmark \"" << benchmark
                << "\" (known:";
      for (const auto& spec : specs)
        std::cerr << " " << spec.topology.name();
      std::cerr << ")\n";
      return 2;
    }

    const resparc::compile::Compiler compiler(
        resparc::core::config_with_mca(mca));
    const resparc::compile::CompiledProgram program =
        compiler.compile(*topology, strategy);

    if (out_path.empty()) {
      program.save(std::cout);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::cerr << "resparc-compile: cannot open \"" << out_path << "\"\n";
        return 2;
      }
      program.save(out);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "resparc-compile: " << e.what() << "\n";
    return 1;
  }
}
