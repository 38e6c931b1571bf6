// kernel_runs: full-grid runtime::KernelRunner::Run launches, back to back
// from one caller, on the native engine. The kernels are the jit_tiering
// set: gaussian5 and sobel3 at 512x512, bilateral9 and bilateral_fixed9 at
// 256x256, tone_curve8 at 512x512; bilateral9 is the one kernel that runs
// on the per-instruction trampoline. A discarded priming process fills a
// private persistent cache first, so the measured process compiles from
// disk and loads the native objects instead of running the toolchain; any
// toolchain run there counts as a failure. Every launch's output is hashed
// and compared with one AST-engine launch of the same kernel and input
// (the reference process).
#include <algorithm>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "compiler/cache.hpp"
#include "image/synthetic.hpp"
#include "ops/kernel_sources.hpp"
#include "ops/masks.hpp"
#include "runtime/kernel_runner.hpp"
#include "sim/jit/cache.hpp"
#include "support/disk_store.hpp"

namespace perfbench {
namespace {

using namespace hipacc;
using support::Json;

/// Host-speed probes: kSetupProbes long ones after set-up, and a short one
/// before every round and after the last. The host's speed can change from
/// one second to the next, and a round takes about a tenth of one.
constexpr int kSetupProbes = 3;
constexpr int kSetupProbePasses = 48;
constexpr int kRoundProbePasses = 12;

/// Full-grid launches fork blocks over every hardware thread and join them,
/// so the probe does the same and takes its wall time, per pass.
double Probe(int passes) {
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return RunProbe(threads, passes).wall_ms / passes;
}

struct KernelCase {
  const char* name;
  frontend::KernelSource source;
  int size;
  runtime::BindingSet scalars;
};

std::vector<KernelCase> Cases() {
  runtime::BindingSet bilateral;
  bilateral.Scalar("sigma_d", 2).Scalar("sigma_r", 5);
  runtime::BindingSet bilateral_fixed;
  bilateral_fixed.Scalar("sigma_r", 5);
  runtime::BindingSet tone;
  tone.Scalar("center", 0.35f).Scalar("weight", 0.6f);
  return {
      {"gaussian5", ops::GaussianSource(5, 1.2f, ast::BoundaryMode::kMirror),
       512, {}},
      {"sobel3",
       ops::ConvolutionSource("sobel", 3, 3, ops::SobelMaskX(),
                              ast::BoundaryMode::kClamp),
       512, {}},
      {"bilateral9", ops::BilateralMaskSource(2, ast::BoundaryMode::kClamp),
       256, bilateral},
      {"bilateral_fixed9",
       ops::BilateralFixedSource(2, ast::BoundaryMode::kClamp), 256,
       bilateral_fixed},
      {"tone_curve8", ops::ToneCurveSource(8), 512, tone},
  };
}

/// One kernel with its images and bindings. Images live on the heap so the
/// bindings' pointers stay valid when the vector of lanes grows.
struct Lane {
  std::string name;
  std::unique_ptr<dsl::Image<float>> in, out;
  runtime::BindingSet bindings;
  std::unique_ptr<runtime::KernelRunner> runner;
};

std::vector<Lane> MakeLanes(std::uint64_t seed) {
  std::vector<Lane> lanes;
  std::uint64_t index = 0;
  for (KernelCase& c : Cases()) {
    Lane lane;
    lane.name = c.name;
    lane.in = std::make_unique<dsl::Image<float>>(c.size, c.size);
    lane.out = std::make_unique<dsl::Image<float>>(c.size, c.size);
    lane.in->CopyFrom(MakeNoiseImage(c.size, c.size, seed * 8 + index++));
    lane.bindings = c.scalars;
    lane.bindings.Input("Input", *lane.in).Output(*lane.out);
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

std::uint64_t HashOutput(const dsl::Image<float>& image) {
  std::uint64_t h = HashBytes(nullptr, 0);
  const Span2D<const float> view = image.span();
  for (int y = 0; y < image.height(); ++y)
    h = HashBytes(view.row(y), sizeof(float) * image.width(), h);
  return h;
}

Json Params(const std::string& cache_dir) {
  Json p = Json::Object();
  Json kernels = Json::Array();
  for (const KernelCase& c : Cases()) {
    Json k = Json::Object();
    k["name"] = c.name;
    k["size"] = c.size;
    kernels.push_back(std::move(k));
  }
  p["kernels"] = std::move(kernels);
  p["device"] = hw::TeslaC2050().name;
  p["engine"] = "native";
  p["jit_threshold"] = sim::SimulatorOptions().jit_threshold;
  p["persistent_cache"] = cache_dir.empty() ? "off" : "private";
  return p;
}

runtime::RunOptions Options(compiler::CompilationCache* cache,
                            sim::ExecEngine engine, sim::TraceSink* trace) {
  runtime::RunOptions options;
  options.cache = cache;
  options.trace = trace;
  options.with_sim_engine(engine);
  return options;
}

Result<Json> Reference(const Args& args) {
  compiler::CompilationCache cache;
  cache.set_disk_store(nullptr);
  std::vector<KernelCase> cases = Cases();
  std::vector<Lane> lanes = MakeLanes(args.seed);
  Json hashes = Json::Array();
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    runtime::KernelRunner runner(
        cases[k].source, Options(&cache, sim::ExecEngine::kAst, nullptr));
    Result<sim::LaunchStats> stats = runner.Run(lanes[k].bindings);
    if (!stats.ok()) return stats.status();
    hashes.push_back(Hex(HashOutput(*lanes[k].out)));
  }
  Json doc = Json::Object();
  doc["hashes"] = std::move(hashes);
  return doc;
}

}  // namespace

Result<Json> RunKernelRuns(const Args& args) {
  if (args.mode == Mode::kReference) return Reference(args);
  if (args.cache_dir.empty())
    return Status::Invalid("kernel_runs needs --cache-dir");
  support::DiskStoreOptions store;
  store.root = args.cache_dir;
  support::ConfigureGlobalDiskStore(store);

  SpanLog log(args.trace);
  sim::TraceSink sink;
  const double sink_origin = NowMs() - sink.NowMs();
  // Priming always traces: it must prove that every kernel tiered up.
  sim::TraceSink* trace =
      args.trace || args.mode == Mode::kPrime ? &sink : nullptr;
  std::vector<KernelCase> cases = Cases();
  std::vector<Lane> lanes = MakeLanes(args.seed);

  // Set-up: runner construction, the compile from the warm disk cache (the
  // first launch) and the launches up to native tier-up (the threshold-th).
  const int threshold = sim::SimulatorOptions().jit_threshold;
  const double setup_start = NowMs();
  compiler::CompilationCache cache;
  Json tier_up_ms = Json::Array();
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    lanes[k].runner = std::make_unique<runtime::KernelRunner>(
        cases[k].source, Options(&cache, sim::ExecEngine::kNative, trace));
    for (int launch = 1; launch <= threshold; ++launch) {
      const double t0 = NowMs();
      Result<sim::LaunchStats> stats = lanes[k].runner->Run(lanes[k].bindings);
      if (!stats.ok()) return stats.status();
      if (launch == threshold) {
        tier_up_ms.push_back(NowMs() - t0);
        log.Add("tier_up " + lanes[k].name, t0, NowMs(),
                static_cast<long long>(k));
      }
    }
  }
  const double setup_end = NowMs();
  log.Add("setup", setup_start, setup_end);

  Json doc = Json::Object();
  doc["params"] = Params(args.cache_dir);
  doc["setup_ms"] = setup_end - setup_start;
  doc["tier_up_ms"] = std::move(tier_up_ms);
  if (args.mode == Mode::kPrime) {
    if (sink.counter("sim.launch.native") <
        static_cast<long long>(lanes.size()))
      return Status::Internal("priming left a kernel below the native tier");
    return doc;
  }
  Json setup_probe_pass_ms = Json::Array();
  for (int i = 0; i < kSetupProbes; ++i)
    setup_probe_pass_ms.push_back(Probe(kSetupProbePasses));
  doc["setup_probe_pass_ms"] = std::move(setup_probe_pass_ms);
  if (args.mode == Mode::kSetup) return doc;

  Result<std::vector<std::string>> reference =
      LoadReferenceHashes(args, lanes.size());
  if (!reference.ok()) return reference.status();
  const std::vector<std::string>& expected = reference.value();

  Json setup_counters = Json::Object();
  for (const char* key : {"sim.launch.native", "sim.launch.bytecode",
                          "sim.launch.ast", "jit.threaded",
                          "bytecode.executed_insns"})
    setup_counters[key] = sink.counter(key);

  long long attempted = 0, failed = 0;
  std::vector<Json> launch_ms(lanes.size(), Json::Array());
  // probe_pass_ms[r] ran before round r; the last one after the last round.
  Json model_ms = Json::Array(), errors = Json::Array(),
       probe_pass_ms = Json::Array();
  const double start = NowMs();
  for (long long round = 0; NowMs() - start < args.seconds * 1000.0;
       ++round) {
    probe_pass_ms.push_back(Probe(kRoundProbePasses));
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const double t0 = NowMs();
      Result<sim::LaunchStats> stats = lanes[k].runner->Run(lanes[k].bindings);
      const double t1 = NowMs();
      ++attempted;
      launch_ms[k].push_back(t1 - t0);
      log.Add("run " + lanes[k].name, t0, t1, round);
      if (!stats.ok()) {
        ++failed;
        errors.push_back(stats.status().ToString());
        continue;
      }
      if (round == 0) model_ms.push_back(stats.value().timing.total_ms);
      if (Hex(HashOutput(*lanes[k].out)) != expected[k]) ++failed;
    }
  }
  probe_pass_ms.push_back(Probe(kRoundProbePasses));
  // Any toolchain run in this process means the priming pass did not cover
  // the measured path.
  const long long toolchain_runs =
      static_cast<long long>(sim::jit::JitCache::Instance().compiles());
  failed += toolchain_runs;

  Json launches = Json::Object();
  for (std::size_t k = 0; k < lanes.size(); ++k)
    launches[lanes[k].name] = std::move(launch_ms[k]);
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["errors"] = std::move(errors);
  doc["launch_ms"] = std::move(launches);
  doc["model_ms"] = std::move(model_ms);
  doc["probe_pass_ms"] = std::move(probe_pass_ms);
  doc["toolchain_runs"] = toolchain_runs;
  doc["pipeline_runs"] = cache.stats().target_misses;
  doc["setup_counters"] = std::move(setup_counters);
  if (args.trace) doc["trace"] = log.ToJson(&sink, sink_origin);
  return doc;
}

}  // namespace perfbench
