// isp_stream: the camera-ISP graph (ops::BuildCameraIspGraph) at 512x512,
// Clamp boundary, streamed through runtime::StreamExecutor in overlap mode
// with a window of two frames on two workers. Closed loop: the executor
// admits the next frame as soon as the window has room. A few distinct raw
// frames generated from the seed are cycled; every retired frame's outputs
// are hashed and compared against a one-shot run of the same raw on the
// simulator's AST engine with fusion off (the reference process).
#include <memory>

#include "bench.hpp"
#include "compiler/cache.hpp"
#include "image/synthetic.hpp"
#include "ops/isp.hpp"
#include "runtime/stream_executor.hpp"

namespace perfbench {
namespace {

using namespace hipacc;
using support::Json;

constexpr int kSize = 512;
constexpr int kDistinctRaws = 3;
constexpr int kWindow = 2;
constexpr int kWorkers = 2;
/// Frames per StreamExecutor::Run call; runs repeat until the time is up.
/// A multiple of the window, so output slots line up across calls.
constexpr long long kChunkFrames = 64;
/// The p90 frame latency needs at least ten frames beyond it.
constexpr long long kMinFrames = 100;
/// Frames replayed by ModelThroughput for the modelled sustained fps.
constexpr long long kModelFrames = 64;
/// Host-speed probes: kSetupProbes after set-up, and one before every Run
/// call and after the last.
constexpr int kSetupProbes = 3;
constexpr int kProbePasses = 48;

using Plane = HostImage<float>;

/// The stream workers run side by side for a whole Run call, so the probe
/// loads as many threads and takes their mean time, per pass.
double Probe() {
  return RunProbe(kWorkers, kProbePasses).mean_ms / kProbePasses;
}

std::vector<Plane> MakeRaws(std::uint64_t seed) {
  std::vector<Plane> raws;
  for (int i = 0; i < kDistinctRaws; ++i)
    raws.push_back(MakeNoiseImage(kSize, kSize, seed * kDistinctRaws + i));
  return raws;
}

std::uint64_t HashFrame(const Plane& y, const Plane& u, const Plane& v) {
  const std::size_t bytes = y.size() * sizeof(float);
  std::uint64_t h = HashBytes(y.data(), bytes);
  h = HashBytes(u.data(), bytes, h);
  return HashBytes(v.data(), bytes, h);
}

runtime::GraphOptions BaseOptions(compiler::CompilationCache* cache,
                                  sim::TraceSink* trace) {
  runtime::GraphOptions options;
  options.workers = kWorkers;
  options.run.cache = cache;
  options.run.trace = trace;
  return options;
}

Json Params() {
  Json p = Json::Object();
  p["size"] = kSize;
  p["boundary"] = "clamp";
  p["stream_mode"] = "overlap";
  p["window"] = kWindow;
  p["workers"] = kWorkers;
  p["distinct_raws"] = kDistinctRaws;
  p["chunk_frames"] = static_cast<long long>(kChunkFrames);
  p["executor"] = "auto";
  p["fuse"] = "all";
  p["persistent_cache"] = "off";
  return p;
}

Result<Json> Reference(const Args& args) {
  const std::vector<Plane> raws = MakeRaws(args.seed);
  const Plane gain = ops::MakeVignettingGain(kSize, kSize);
  compiler::CompilationCache cache;
  cache.set_disk_store(nullptr);
  runtime::GraphOptions options = BaseOptions(&cache, nullptr);
  options.executor = runtime::GraphOptions::Executor::kSimulator;
  options.fuse = compiler::FusionMode::kOff;
  options.run.with_sim_engine(sim::ExecEngine::kAst);
  Json hashes = Json::Array();
  for (const Plane& raw : raws) {
    runtime::PipelineGraph graph;
    ops::BuildCameraIspGraph(graph, kSize, kSize, ast::BoundaryMode::kClamp);
    Plane y(kSize, kSize), u(kSize, kSize), v(kSize, kSize);
    HIPACC_RETURN_IF_ERROR(graph.Run({{"raw", &raw}, {"gain", &gain}},
                                     {{"y_dn", &y}, {"u", &u}, {"v", &v}},
                                     options));
    hashes.push_back(Hex(HashFrame(y, u, v)));
  }
  Json doc = Json::Object();
  doc["hashes"] = std::move(hashes);
  return doc;
}

/// Everything set-up builds; members are declared in dependency order so
/// the executor is destroyed before the graph and cache it refers to.
struct Prepared {
  std::unique_ptr<compiler::CompilationCache> cache;
  std::unique_ptr<runtime::PipelineGraph> graph;
  std::unique_ptr<runtime::StreamExecutor> executor;
  double setup_ms = 0.0;
};

/// Set-up as the metric defines it: graph declaration plus
/// StreamExecutor::Prepare (plan, fusion, cold compile of every stage).
Result<Prepared> SetUp(sim::TraceSink* trace, SpanLog* log) {
  Prepared p;
  const double start = NowMs();
  p.cache = std::make_unique<compiler::CompilationCache>();
  p.cache->set_disk_store(nullptr);
  p.graph = std::make_unique<runtime::PipelineGraph>();
  ops::BuildCameraIspGraph(*p.graph, kSize, kSize, ast::BoundaryMode::kClamp);
  runtime::StreamOptions stream;
  stream.mode = runtime::StreamMode::kOverlap;
  stream.in_flight = kWindow;
  p.executor = std::make_unique<runtime::StreamExecutor>(
      *p.graph, BaseOptions(p.cache.get(), trace), stream);
  const double prepare_start = NowMs();
  HIPACC_RETURN_IF_ERROR(p.executor->Prepare());
  const double end = NowMs();
  const int setup = log->Add("setup", start, end);
  log->Add("prepare", prepare_start, end, -1, setup);
  p.setup_ms = end - start;
  return p;
}

/// Per-frame timestamps of one Run call, indexed by frame-in-chunk. Each
/// slot is written by exactly one callback invocation and read after Run
/// returned (the executor's joins order the accesses).
struct ChunkLog {
  explicit ChunkLog(long long frames)
      : bind_start(frames), bind_end(frames), retire_start(frames),
        retire_end(frames), match(frames, 0) {}
  std::vector<double> bind_start, bind_end, retire_start, retire_end;
  std::vector<char> match;
};

}  // namespace

Result<Json> RunIspStream(const Args& args) {
  if (args.mode == Mode::kReference) return Reference(args);
  if (args.mode == Mode::kPrime)
    return Status::Invalid("isp_stream has no persistent cache to prime");

  SpanLog log(args.trace);
  sim::TraceSink sink;
  const double sink_origin = NowMs() - sink.NowMs();
  sim::TraceSink* trace = args.trace ? &sink : nullptr;

  Result<Prepared> prepared = SetUp(trace, &log);
  if (!prepared.ok()) return prepared.status();
  Prepared& p = prepared.value();
  Json doc = Json::Object();
  doc["params"] = Params();
  doc["setup_ms"] = p.setup_ms;
  Json setup_probe_pass_ms = Json::Array();
  for (int i = 0; i < kSetupProbes; ++i) setup_probe_pass_ms.push_back(Probe());
  doc["setup_probe_pass_ms"] = std::move(setup_probe_pass_ms);
  if (args.mode == Mode::kSetup) return doc;

  Result<std::vector<std::string>> reference =
      LoadReferenceHashes(args, kDistinctRaws);
  if (!reference.ok()) return reference.status();
  const std::vector<std::string>& expected = reference.value();

  const std::vector<Plane> raws = MakeRaws(args.seed);
  const Plane gain = ops::MakeVignettingGain(kSize, kSize);
  std::vector<Plane> y(kWindow, Plane(kSize, kSize));
  std::vector<Plane> u(kWindow, Plane(kSize, kSize));
  std::vector<Plane> v(kWindow, Plane(kSize, kSize));

  long long attempted = 0, failed = 0, frames = 0;
  int max_in_flight = 0;
  double wall_ms = 0.0;
  Json latencies = Json::Array(), bind_ms = Json::Array(),
       retire_ms = Json::Array(), errors = Json::Array(),
       retired_at = Json::Array(), probe_pass_ms = Json::Array();
  const double start = NowMs();
  for (long long base = 0;; base += kChunkFrames) {
    probe_pass_ms.push_back(Probe());
    ChunkLog chunk(kChunkFrames);
    const auto binder = [&](long long f,
                            runtime::PipelineGraph::InputBindings* in,
                            runtime::PipelineGraph::OutputBindings* out) {
      chunk.bind_start[f] = NowMs();
      const std::size_t slot = static_cast<std::size_t>(f % kWindow);
      in->assign({{"raw", &raws[static_cast<std::size_t>(
                               (base + f) % kDistinctRaws)]},
                  {"gain", &gain}});
      out->assign({{"y_dn", &y[slot]}, {"u", &u[slot]}, {"v", &v[slot]}});
      chunk.bind_end[f] = NowMs();
      return Status::Ok();
    };
    const auto retirer = [&](long long f) {
      chunk.retire_start[f] = NowMs();
      const std::size_t slot = static_cast<std::size_t>(f % kWindow);
      chunk.match[f] =
          Hex(HashFrame(y[slot], u[slot], v[slot])) ==
          expected[static_cast<std::size_t>((base + f) % kDistinctRaws)];
      chunk.retire_end[f] = NowMs();
      return Status::Ok();
    };
    const double run_start = NowMs();
    const Status status = p.executor->Run(kChunkFrames, binder, retirer);
    const double run_end = NowMs();
    const runtime::StreamStats& stats = p.executor->stats();
    wall_ms += run_end - run_start;
    attempted += kChunkFrames;
    failed += kChunkFrames - stats.frames;
    frames += stats.frames;
    max_in_flight = std::max(max_in_flight, stats.max_in_flight);
    if (!status.ok()) errors.push_back(status.ToString());
    const int run_span = log.Add("run", run_start, run_end, base);
    Json chunk_retired = Json::Array(), chunk_latencies = Json::Array();
    for (long long f = 0; f < stats.frames; ++f) {
      if (!chunk.match[f]) ++failed;
      chunk_latencies.push_back(
          stats.latencies_ms[static_cast<std::size_t>(f)]);
      bind_ms.push_back(chunk.bind_end[f] - chunk.bind_start[f]);
      retire_ms.push_back(chunk.retire_end[f] - chunk.retire_start[f]);
      chunk_retired.push_back(chunk.retire_end[f]);
      const int frame = log.Add("frame", chunk.bind_start[f],
                                chunk.retire_end[f], base + f, run_span);
      log.Add("bind", chunk.bind_start[f], chunk.bind_end[f], base + f, frame);
      log.Add("retire", chunk.retire_start[f], chunk.retire_end[f], base + f,
              frame);
    }
    retired_at.push_back(std::move(chunk_retired));
    latencies.push_back(std::move(chunk_latencies));
    if (!status.ok()) break;
    if (NowMs() - start >= args.seconds * 1000.0 && frames >= kMinFrames)
      break;
  }
  probe_pass_ms.push_back(Probe());

  // Snapshot the trace before ModelThroughput adds its own launches.
  if (args.trace) doc["trace"] = log.ToJson(&sink, sink_origin);
  Result<runtime::StreamModel> model =
      p.executor->ModelThroughput(kModelFrames);
  if (!model.ok()) return model.status();

  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["errors"] = std::move(errors);
  doc["frames"] = frames;
  doc["wall_ms"] = wall_ms;
  doc["latencies_ms"] = std::move(latencies);
  doc["bind_ms"] = std::move(bind_ms);
  doc["retire_ms"] = std::move(retire_ms);
  doc["retired_at_ms"] = std::move(retired_at);
  doc["probe_pass_ms"] = std::move(probe_pass_ms);
  doc["max_in_flight"] = max_in_flight;
  doc["model_fps"] = model.value().fps;
  doc["pipeline_runs"] = p.cache->stats().target_misses;
  return doc;
}

}  // namespace perfbench
