// perfbench: runs one benchmark workload in one process and writes its raw
// samples as JSON. Driven by perfbench/run.py, which owns the benchmark's
// command line, derives the metrics and checks outputs against references.
//
//   perfbench <workload> --mode=reference|prime|setup|measure --seed=N
//             --seconds=S --trace=0|1 --out=FILE [--reference=FILE]
//             [--cache-dir=DIR]
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "support/string_utils.hpp"

namespace perfbench {

using hipacc::Result;
using hipacc::Status;
using hipacc::support::Json;

double NowMs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int SpanLog::Add(std::string name, double start_ms, double end_ms,
                 long long group, int parent) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, group});
  return static_cast<int>(spans_.size()) - 1;
}

Json SpanLog::ToJson(const hipacc::sim::TraceSink* sink,
                     double sink_origin_ms) const {
  Json doc = Json::Object();
  Json spans = Json::Array();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      Json row = Json::Array();
      row.push_back(s.name);
      row.push_back(s.start_ms);
      row.push_back(s.end_ms);
      row.push_back(s.parent);
      row.push_back(s.group);
      spans.push_back(std::move(row));
    }
  }
  doc["spans"] = std::move(spans);
  Json program = Json::Array();
  Json counters = Json::Object();
  if (sink != nullptr) {
    const Json trace = sink->ToJson();
    if (const Json* events = trace.Find("events")) {
      for (const Json& e : events->elements()) {
        const double start = e.Find("start_ms")->number_value();
        const double dur = e.Find("dur_ms")->number_value();
        if (dur <= 0.0) continue;  // instant events carry no time
        std::string pass;
        if (const Json* args = e.Find("args"))
          if (const Json* p = args->Find("pass")) pass = p->string_value();
        Json row = Json::Array();
        row.push_back(e.Find("name")->string_value());
        row.push_back(e.Find("category")->string_value());
        row.push_back(start + sink_origin_ms);
        row.push_back(start + dur + sink_origin_ms);
        row.push_back(e.Find("tid")->int_value());
        row.push_back(pass);
        program.push_back(std::move(row));
      }
    }
    if (const Json* c = trace.Find("counters")) counters = *c;
  }
  doc["program_spans"] = std::move(program);
  doc["counters"] = std::move(counters);
  return doc;
}

std::uint64_t HashBytes(const void* data, std::size_t bytes,
                        std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 0x100000001B3ull;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  // Four independent lanes keep the multiplies from serialising.
  std::uint64_t lane[4] = {seed ^ bytes, seed + 1, seed + 2, seed + 3};
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t word;
      std::memcpy(&word, p + i + 8 * l, 8);
      lane[l] = (lane[l] ^ word) * kPrime;
      lane[l] ^= lane[l] >> 29;
    }
  }
  std::uint64_t h = lane[0];
  for (int l = 1; l < 4; ++l) h = (h ^ lane[l]) * kPrime;
  for (; i < bytes; ++i) h = (h ^ p[i]) * kPrime;
  return h ^ (h >> 32);
}

std::string Hex(std::uint64_t value) {
  return hipacc::StrFormat("%016llx", static_cast<unsigned long long>(value));
}

namespace {

constexpr int kProbeSize = 128;

/// Operations of the probe's stack machine; each takes one operand word.
enum ProbeOp : int { kLoad, kAdd, kScale, kClampLow, kClampHigh, kFold };

/// A 5-point stencil with scaling, clamping and a data-dependent branch.
/// The code is interpreted the way the simulator's VM and the host executor
/// interpret theirs: a dispatch per operation, per pixel.
std::vector<int> ProbeProgram() {
  const int n = kProbeSize;
  return {kLoad, -1, kLoad, 0, kAdd, 0, kLoad, 1, kAdd, 0, kScale, 0,
          kLoad, -n, kAdd, 0, kLoad, n, kAdd, 0, kScale, 1, kClampLow, 0,
          kClampHigh, 0, kFold, 0};
}

/// One probe thread: `passes` passes of ProbeProgram over a plane,
/// ping-ponging between two planes so no pass can be elided.
double ProbeThread(int passes) {
  const int n = kProbeSize;
  const std::vector<int> program = ProbeProgram();
  std::vector<float> a(static_cast<std::size_t>(n) * n), b(a.size(), 0.0f);
  for (std::size_t i = 0; i < a.size(); ++i)
    a[i] = static_cast<float>((i * 2654435761u) % 1024u) / 1024.0f;
  const double start = NowMs();
  for (int pass = 0; pass < passes; ++pass) {
    for (int y = 1; y < n - 1; ++y) {
      for (int x = 1; x < n - 1; ++x) {
        const std::size_t i = static_cast<std::size_t>(y * n + x);
        float stack[8];
        int top = 0;
        for (std::size_t pc = 0; pc < program.size(); pc += 2) {
          const int operand = program[pc + 1];
          switch (program[pc]) {
            case kLoad:
              stack[top++] = a[static_cast<std::size_t>(
                  static_cast<std::ptrdiff_t>(i) + operand)];
              break;
            case kAdd:
              --top;
              stack[top - 1] += stack[top];
              break;
            case kScale:
              stack[top - 1] *= operand != 0 ? 0.25f : 0.5f;
              break;
            case kClampLow:
              stack[top - 1] = stack[top - 1] > 0.0f ? stack[top - 1] : 0.0f;
              break;
            case kClampHigh:
              stack[top - 1] = stack[top - 1] < 1.0f ? stack[top - 1] : 1.0f;
              break;
            default:  // kFold
              if (stack[top - 1] > 0.5f) stack[top - 1] = 1.0f - stack[top - 1];
              break;
          }
        }
        b[i] = stack[0];
      }
    }
    a.swap(b);
  }
  const double elapsed = NowMs() - start;
  static std::atomic<float> sink{0.0f};
  sink.store(a[static_cast<std::size_t>(n / 2 * n + n / 2)],
             std::memory_order_relaxed);
  return elapsed;
}

}  // namespace

ProbeTimes RunProbe(int threads, int passes) {
  std::vector<double> ms(static_cast<std::size_t>(threads), 0.0);
  std::vector<std::thread> pool;
  const double start = NowMs();
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&ms, t, passes] {
      ms[static_cast<std::size_t>(t)] = ProbeThread(passes);
    });
  for (std::thread& thread : pool) thread.join();
  ProbeTimes times;
  times.wall_ms = NowMs() - start;
  for (double v : ms) times.mean_ms += v / threads;
  return times;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

Result<std::vector<std::string>> LoadReferenceHashes(const Args& args,
                                                     std::size_t count) {
  if (args.reference.empty())
    return Status::Invalid("--reference is required in measure mode");
  Result<std::string> text = hipacc::support::ReadFile(args.reference);
  if (!text.ok()) return text.status();
  Result<Json> doc = Json::Parse(text.value());
  if (!doc.ok()) return doc.status();
  const Json* hashes = doc.value().Find("hashes");
  if (hashes == nullptr || hashes->size() != count)
    return Status::Invalid("reference does not hold one hash per output");
  std::vector<std::string> out;
  for (const Json& h : hashes->elements()) out.push_back(h.string_value());
  return out;
}

namespace {

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::Invalid("usage: perfbench <workload> --mode=...");
  Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      return Status::Invalid("expected --flag=value, got '" + arg + "'");
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "mode") {
      if (value == "reference") args.mode = Mode::kReference;
      else if (value == "prime") args.mode = Mode::kPrime;
      else if (value == "setup") args.mode = Mode::kSetup;
      else if (value == "measure") args.mode = Mode::kMeasure;
      else return Status::Invalid("unknown mode '" + value + "'");
    } else if (key == "seed" || key == "seconds") {
      char* end = nullptr;
      const double number = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(number >= 0.0))
        return Status::Invalid("--" + key + " expects a number >= 0");
      if (key == "seed")
        args.seed = std::strtoull(value.c_str(), nullptr, 10);
      else
        args.seconds = number;
    } else if (key == "trace") {
      args.trace = value == "1";
    } else if (key == "out") {
      args.out = value;
    } else if (key == "reference") {
      args.reference = value;
    } else if (key == "cache-dir") {
      args.cache_dir = value;
    } else {
      return Status::Invalid("unknown flag --" + key);
    }
  }
  if (args.out.empty()) return Status::Invalid("--out is required");
  if (!(args.seconds > 0.0)) return Status::Invalid("--seconds must be > 0");
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  NowMs();  // pin the clock origin at process start
  hipacc::Result<Args> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const Args& args = parsed.value();
  hipacc::Result<hipacc::support::Json> doc = hipacc::Status::Invalid(
      "unknown workload '" + args.workload + "'");
  if (args.workload == "isp_stream") doc = RunIspStream(args);
  else if (args.workload == "kernel_runs") doc = RunKernelRuns(args);
  if (!doc.ok()) {
    std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(),
                 doc.status().ToString().c_str());
    return 1;
  }
  hipacc::support::Json out = std::move(doc).take();
  out["workload"] = args.workload;
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  out["compiler"] = PERFBENCH_COMPILER;
  out["peak_rss_mb"] = PeakRssMb();
  const hipacc::Status written =
      hipacc::support::WriteFile(args.out, out.Dump() + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}
