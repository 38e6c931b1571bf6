// Host bytecode executor: runs a kernel's compiled register programs
// (sim/bytecode.hpp) directly over image rows, without the simulator's
// warp-lockstep machinery, memory model, or metric accounting. It exists
// for the pipeline graph runtime (runtime/graph.hpp), where stages only
// need *values* — the simulator remains the path that also models time.
//
// Shared semantics: every instruction means what it means in the
// simulator's VM, because both run the one lane core of sim/lane_exec.hpp.
// The VM runs it over a warp under SimModel; this executor runs it over a
// row chunk (RowLanes: pixels x0 + l, y, every lane active) under NullModel,
// whose memory-model and metric hooks inline away. What stays here is
// host-only: the region plan, the lowering with its fused convolution tap,
// the mask-free loops for mask slot 0, and the chunk widths.
//
// Execution model: each output row is cut into x-segments by the kernel's
// boundary-handling halo — [0, halo_x), [halo_x, W - halo_x), [W - halo_x,
// W) — and crossed with the same three y-bands, selecting one of the nine
// region programs per segment at *pixel* granularity. This is value-exact
// with the simulator's block-granular region multiplexing: a region's
// program differs from the interior one only in which boundary guards it
// carries, and guards are value-neutral for in-range reads — every pixel
// here runs under a program whose guards cover exactly the directions it
// can actually exceed.
//
// Lowering: each launch first lowers its region programs into a host-only
// instruction stream, in time linear in the instruction count. Cost-only
// kAccount / kBarrier instructions are dropped and branch targets
// renumbered. In programs without branches or loops, every convolution tap
// — a constant-mask read at literal offsets inside the mask, an image read
// at gid+offset (either order), their float kMul (either operand order),
// and a float `acc += product`, all on mask slot 0 — becomes one
// multiply-accumulate that reads the float image row directly and computes
// `acc = float(float(acc) + coeff * px)`, the VM's per-op float rounding.
// A tap fuses only when its three temporaries (the two loaded values and
// the product) are dead afterwards: each is overwritten before any read,
// or never referenced again. The bytecode programs themselves are not
// modified.
//
// Lane loops: segments run in chunks of up to 256 lanes, one dispatch per
// instruction per chunk. Full chunks use an instantiation with a
// compile-time width; partial chunks (a 510-pixel interior splits
// 256 + 254) run the same fast paths with a run-time width. Mask slot 0 is
// the chunk's all-active mask (programs that write it are rejected), so
// instructions predicated on it run mask-free loops. Outputs are
// bit-identical to both simulator engines and to the DSL's functional path.
// The source file is built with -O3 (so those loops vectorise) and
// -ffp-contract=off (so no multiply-add is contracted into an FMA, which
// would change rounding).
//
// Programs the executor cannot prove equivalent return Unimplemented:
// scratchpad staging (kLoadShared), texture/hardware boundary handling,
// thread/block-index dependent values, a write to mask slot 0, or a halo
// exceeding the image (the degenerate-region case). Callers fall back to
// the simulator. A launch with a missing or read-only binding fails with
// the simulator's Invalid text. Both happen before any output is written.
#pragma once

#include "sim/bytecode.hpp"
#include "sim/launch.hpp"
#include "support/status.hpp"

namespace hipacc::runtime {

struct HostExecOptions {
  /// Worker threads for the row loop (0 = hardware concurrency, 1 =
  /// serial). Rows are data-parallel; any thread count is value-identical.
  int threads = 0;
};

/// Executes `launch.programs` over the launch's iteration space, writing
/// bound output buffers in place. `halo_x` / `halo_y` is the kernel's
/// boundary-handling window (DeviceKernel::bh_window) that sized the nine
/// region variants; ignored when the program set has a single variant.
/// Returns Unimplemented for unsupported programs (see file comment),
/// always before writing any output — the caller is expected to fall back
/// to simulator execution.
Status RunOnHost(const sim::Launch& launch, int halo_x, int halo_y,
                 const HostExecOptions& options = {});

}  // namespace hipacc::runtime
