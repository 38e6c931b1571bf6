// Simulator driver: functional execution (every block, exact output) and
// sampled measurement (a few blocks per boundary region interpreted, metrics
// extrapolated by region population, then run through the timing model).
// Sampling is exact for our kernels because every block within one region
// executes the same instruction stream — only cache behaviour varies
// slightly at the image edges, which the per-region samples capture.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "codegen/resource_estimator.hpp"
#include "sim/launch.hpp"
#include "sim/options.hpp"
#include "sim/timing.hpp"

namespace hipacc::sim {

class TraceSink;
struct ProgramSet;

struct LaunchStats {
  Metrics metrics;              ///< whole-grid (exact or extrapolated)
  TimingBreakdown timing;       ///< modelled time
  hw::OccupancyResult occupancy;
  hw::RegionGrid region_grid;
  bool sampled = false;
};

/// The binding checks of Simulator::Validate: every buffer and constant
/// mask `launch.kernel` declares is bound, each mask at its declared size.
Status ValidateBindings(const Launch& launch);

class Simulator {
 public:
  explicit Simulator(hw::DeviceSpec device,
                     SimulatorOptions options = DefaultSimulatorOptions())
      : device_(std::move(device)), options_(options) {}

  const SimulatorOptions& options() const noexcept { return options_; }

  const hw::DeviceSpec& device() const noexcept { return device_; }

  /// Attaches an observability sink: every Execute/Measure records a span
  /// with its configuration, metrics, and timing breakdown. `tid` labels the
  /// logical lane in the trace (exploration worker id). The sink must
  /// outlive the simulator; pass nullptr to detach. Launches themselves
  /// stay thread-safe, but set_trace must not race with in-flight launches.
  void set_trace(TraceSink* sink, int tid = 0) noexcept {
    trace_ = sink;
    trace_tid_ = tid;
  }
  TraceSink* trace() const noexcept { return trace_; }

  /// Validates the launch against device limits (configs exceeding the
  /// hardware model's resources fail like a real kernel-launch error).
  Status Validate(const Launch& launch) const;

  /// Executes every block of the grid (host-parallel), producing the exact
  /// output image and exact whole-grid metrics.
  Result<LaunchStats> Execute(const Launch& launch) const;

  /// Interprets up to `samples_per_region` blocks of each populated region
  /// and extrapolates. Output buffers are only partially written.
  Result<LaunchStats> Measure(const Launch& launch,
                              int samples_per_region = 3) const;

 private:
  hw::OccupancyResult Occupancy(const Launch& launch) const;
  double IssueScale(const Launch& launch) const;
  const hw::KernelResources& Resources(const Launch& launch) const;
  /// Resolves the bytecode programs for this launch: the artifact's
  /// pre-compiled set when attached, else a lazily compiled kernel-keyed
  /// cache. Returns null when the AST engine is selected or bytecode
  /// compilation bailed out (the launch then runs on the interpreter).
  const ProgramSet* PreparePrograms(const Launch& launch) const;
  /// Runs one block of `launch` (block x, block y, metrics, executed
  /// instruction count).
  using BlockFn = std::function<Status(int, int, Metrics*, std::uint64_t*)>;
  /// Picks the engine for one launch — under engine == kNative this tiers
  /// up and checks the bindings, once per launch — binds the launch once
  /// (the returned function owns the table), and counts the launch under
  /// sim.launch.{native,bytecode,ast}.
  BlockFn PrepareBlocks(const Launch& launch) const;

  hw::DeviceSpec device_;
  SimulatorOptions options_;
  TraceSink* trace_ = nullptr;
  int trace_tid_ = 0;
  /// Resource estimation walks the kernel IR; launches of the same kernel
  /// (every exploration candidate) reuse the walk. Guarded by the caller's
  /// single-threaded use of one Simulator per measurement lane.
  mutable const ast::DeviceKernel* resources_kernel_ = nullptr;
  mutable hw::KernelResources resources_cache_;
  /// Lazily compiled bytecode for launches that arrive without programs
  /// (hand-built launches, runtime paths that bypass the compiler pass).
  /// Same single-lane-use contract as the resources cache.
  mutable const ast::DeviceKernel* programs_kernel_ = nullptr;
  mutable std::shared_ptr<const ProgramSet> programs_cache_;
};

}  // namespace hipacc::sim
