// google-benchmark microbenchmarks of the framework's own components
// (wall-clock, not modelled time): boundary-index resolution, the DSL host
// executor, the frontend, the full compile pipeline, and the simulated
// device's block interpreter. These guard the usability of the toolchain
// itself — compile times and host-execution throughput.
#include <benchmark/benchmark.h>

#include "compiler/executable.hpp"
#include "dsl/boundary.hpp"
#include "image/synthetic.hpp"
#include "ops/dsl_ops.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"

using namespace hipacc;

namespace {

void BM_BoundaryResolve(benchmark::State& state) {
  const auto mode = static_cast<ast::BoundaryMode>(state.range(0));
  int c = -1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsl::ResolveBoundaryIndex(c, 512, mode));
    c = c >= 1500 ? -1000 : c + 7;
  }
}
BENCHMARK(BM_BoundaryResolve)
    ->Arg(static_cast<int>(ast::BoundaryMode::kClamp))
    ->Arg(static_cast<int>(ast::BoundaryMode::kRepeat))
    ->Arg(static_cast<int>(ast::BoundaryMode::kMirror));

void BM_DslGaussianHostExec(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const HostImage<float> host = MakeNoiseImage(n, n, 7);
  dsl::Image<float> in(n, n), out(n, n);
  in.CopyFrom(host);
  dsl::Mask<float> mask(5, 5);
  mask = ops::GaussianMask2D(5, 1.2f);
  dsl::BoundaryCondition<float> bc(in, 5, 5, ast::BoundaryMode::kMirror);
  dsl::Accessor<float> acc(bc);
  dsl::IterationSpace<float> is(out);
  ops::Convolution conv(is, acc, mask);
  for (auto _ : state) conv.execute();
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n) * n);
}
// Both throughput benches run multi-threaded: items/s must come from wall
// time, not the main thread's CPU time.
BENCHMARK(BM_DslGaussianHostExec)->Arg(256)->Arg(512)->UseRealTime();

void BM_FrontendParse(benchmark::State& state) {
  const frontend::KernelSource source =
      ops::BilateralMaskSource(3, ast::BoundaryMode::kClamp);
  for (auto _ : state) {
    auto kernel = frontend::ParseKernel(source);
    benchmark::DoNotOptimize(kernel.ok());
  }
}
BENCHMARK(BM_FrontendParse);

void BM_FullCompile(benchmark::State& state) {
  const frontend::KernelSource source =
      ops::BilateralMaskSource(3, ast::BoundaryMode::kMirror);
  compiler::CompileOptions copts;
  copts.device = hw::TeslaC2050();
  copts.image_width = 4096;
  copts.image_height = 4096;
  for (auto _ : state) {
    auto compiled = compiler::Compile(source, copts);
    benchmark::DoNotOptimize(compiled.ok());
  }
}
BENCHMARK(BM_FullCompile);

void BM_SimulatedBlockThroughput(benchmark::State& state) {
  const int n = 256;
  frontend::KernelSource source =
      ops::GaussianSource(5, 1.5f, ast::BoundaryMode::kClamp);
  compiler::CompileOptions copts;
  copts.device = hw::TeslaC2050();
  copts.image_width = n;
  copts.image_height = n;
  copts.forced_config = hw::KernelConfig{32, 4};
  auto compiled = compiler::Compile(source, copts);
  HIPACC_CHECK(compiled.ok());
  dsl::Image<float> in(n, n), out(n, n);
  runtime::BindingSet bindings;
  bindings.Input("Input", in).Output(out);
  compiler::SimulatedExecutable exe(std::move(compiled).take(),
                                    hw::TeslaC2050());
  for (auto _ : state) {
    auto stats = exe.Run(bindings);
    benchmark::DoNotOptimize(stats.ok());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n) * n);
}
BENCHMARK(BM_SimulatedBlockThroughput)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
