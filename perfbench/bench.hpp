// Shared pieces of the benchmark binary: the command-line contract
// between perfbench/run.py and the workload runners, the span log of the
// traced run, output hashing and process measurements.
//
// The binary only measures and records raw samples; every derived number
// (percentiles, medians, ratios, self times) is computed by
// perfbench/stats.py so that arithmetic has one home and one test suite.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "support/json.hpp"

namespace perfbench {

/// What run.py asks one process to do.
enum class Mode {
  kReference,  ///< compute the reference outputs the measured path must match
  kPrime,      ///< fill the workload's private persistent cache, then exit
  kSetup,      ///< run the set-up phase only and report its duration
  kMeasure,    ///< set up, then run the timed window
};

struct Args {
  std::string workload;
  Mode mode = Mode::kMeasure;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Raw result document written here (JSON).
  std::string out;
  /// Reference document produced by a kReference process (kMeasure only).
  std::string reference;
  /// Private persistent-cache directory (kernel_runs only).
  std::string cache_dir;
};

/// Milliseconds on the process-wide steady clock, shared by every span.
double NowMs();

/// One benchmark-side span: a timed call into a layer. `group` ties the
/// spans of one frame, candidate or launch together (-1: none).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  long long group = -1;
};

/// In-memory span log of the traced run; serialised once the run ends.
/// Thread-safe: stream callbacks record from worker threads.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a completed span and returns its index (-1 when disabled).
  int Add(std::string name, double start_ms, double end_ms,
          long long group = -1, int parent = -1);

  /// {"spans": [[name, start, end, parent, group], ...],
  ///  "program_spans": [[name, category, start, end, tid, pass], ...],
  ///  "counters": {...}}; program spans come from `sink`, shifted onto
  /// this log's clock.
  hipacc::support::Json ToJson(const hipacc::sim::TraceSink* sink,
                               double sink_origin_ms) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Word-at-a-time 64-bit hash of `bytes` bytes (output identity checks;
/// several times cheaper per frame than a byte-wise FNV).
std::uint64_t HashBytes(const void* data, std::size_t bytes,
                        std::uint64_t seed = 0x9E3779B97F4A7C15ull);

/// Hex rendering of a hash (JSON numbers cannot hold 64 bits exactly).
std::string Hex(std::uint64_t value);

/// Times of one host-speed probe run (see RunProbe).
struct ProbeTimes {
  /// Mean of the threads' own times: what threads that run side by side
  /// for long, like the stream workers, get done.
  double mean_ms = 0.0;
  /// From spawning the threads to joining the last: what a fork-join
  /// launch of the same work takes, like the simulator's full-grid ones.
  double wall_ms = 0.0;
};

/// Host-speed probe: `passes` passes of a fixed stack-machine program (a
/// 5-point stencil) interpreted per pixel over a 128x128 plane, on each of
/// `threads` threads at once. Its planes take 128 KiB per thread, so it
/// barely moves the peak RSS. The probe's work never changes and lives
/// outside the program, so its time tracks how fast the shared host runs
/// at that moment; run.py scales the workload's timings by it (README.md,
/// "Host-speed scaling").
ProbeTimes RunProbe(int threads, int passes);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Per-workload entry points; each returns the raw result document.
hipacc::Result<hipacc::support::Json> RunIspStream(const Args& args);
hipacc::Result<hipacc::support::Json> RunKernelRuns(const Args& args);

/// The `count` output hashes of the kReference document named by
/// `args.reference`.
hipacc::Result<std::vector<std::string>> LoadReferenceHashes(
    const Args& args, std::size_t count);

}  // namespace perfbench
