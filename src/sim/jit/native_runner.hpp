// Native execution engine: runs one thread block of a compiled ProgramSet
// through its dlopened warp functions (cache.hpp) with the same observable
// behaviour — outputs, metrics, memory-model call sequence, and error
// texts — as the bytecode VM's RunBlockBytecode.
#pragma once

#include <cstdint>
#include <vector>

#include "hwmodel/device_spec.hpp"
#include "sim/bytecode.hpp"
#include "sim/jit/abi.hpp"
#include "sim/jit/cache.hpp"
#include "sim/launch.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim::jit {

/// A launch binding table in the generated code's ABI layout, built once
/// per launch and shared read-only by every block.
struct NativeTables {
  std::vector<JitBuffer> buffers;
  std::vector<JitMaskTable> masks;
};

NativeTables MakeNativeTables(const LaunchBindings& bind);

/// Executes one thread block through the native warp functions, with
/// `bind` = BindLaunch(programs, launch) and `tables` made from it.
/// `executed_insns` accumulates dispatched instruction counts like the VM.
/// The generated functions test bindings on entry, before any side effect,
/// while the VM fails at the first instruction that needs one: callers run
/// launches with a FirstBindingFault on the VM, to report the same partial
/// work.
Status RunBlockNative(const Launch& launch, const ProgramSet& programs,
                      const LaunchBindings& bind, const NativeTables& tables,
                      const NativeProgram& native,
                      const hw::DeviceSpec& device, int block_x_idx,
                      int block_y_idx, Metrics* metrics,
                      std::uint64_t* executed_insns);

}  // namespace hipacc::sim::jit
