// Native execution engine: runs one thread block of a compiled ProgramSet
// through its dlopened warp functions (cache.hpp) with the same observable
// behaviour — outputs, metrics, memory-model call sequence, and error
// texts — as the bytecode VM's RunBlockBytecode.
#pragma once

#include <cstdint>

#include "hwmodel/device_spec.hpp"
#include "sim/bytecode.hpp"
#include "sim/jit/cache.hpp"
#include "sim/launch.hpp"
#include "sim/metrics.hpp"

namespace hipacc::sim::jit {

/// Whether every buffer and constant mask the programs touch is bound, and
/// every stored buffer writable. Bindings are launch constants, so callers
/// check once per launch: the generated functions test them on entry,
/// before any side effect, while the VM errors only when an instruction
/// reaches the binding (after the work before it), so a launch that fails
/// this check must run on the VM to report the same partial work.
bool NativeBindingsHold(const ProgramSet& programs, const Launch& launch);

/// Executes one thread block through the native warp functions.
/// `executed_insns` accumulates dispatched instruction counts like the VM.
Status RunBlockNative(const Launch& launch, const ProgramSet& programs,
                      const NativeProgram& native,
                      const hw::DeviceSpec& device, int block_x_idx,
                      int block_y_idx, Metrics* metrics,
                      std::uint64_t* executed_insns);

}  // namespace hipacc::sim::jit
