#include "sim/jit/native_runner.hpp"

#include <algorithm>
#include <vector>

#include "sim/block_state.hpp"
#include "sim/jit/abi.hpp"

namespace hipacc::sim::jit {
namespace {

/// Per-thread scratch reused across blocks, like the VM's VmScratch: the
/// register file persists so the generated code sees the same
/// write-before-read discipline the VM's thread-local register file has.
struct NativeScratch {
  std::vector<double> regs;
  std::vector<JitBuffer> buffers;
  std::vector<JitMaskTable> mask_tables;
};

NativeScratch& ThreadScratch() {
  static thread_local NativeScratch scratch;
  return scratch;
}

struct HostCtx {
  BlockState* st = nullptr;
  Metrics* metrics = nullptr;
};

/// Memory-model callback: hands the generated code's address span
/// straight to the same MemoryModel entry points the VM calls, in the same
/// order — no intermediate copy.
void MemAccessThunk(void* host, int kind, const unsigned long long* addrs,
                    int count) {
  auto* h = static_cast<HostCtx*>(host);
  static_assert(sizeof(unsigned long long) == sizeof(std::uint64_t));
  const auto* a = reinterpret_cast<const std::uint64_t*>(addrs);
  const auto n = static_cast<std::size_t>(count);
  switch (kind) {
    case kJitMemGlobalRead:
      h->st->memory.GlobalAccess(a, n, /*is_write=*/false, h->metrics);
      break;
    case kJitMemGlobalWrite:
      h->st->memory.GlobalAccess(a, n, /*is_write=*/true, h->metrics);
      break;
    case kJitMemShared:
      h->st->memory.SharedAccess(a, n, h->metrics);
      break;
    case kJitMemConstant:
      h->st->memory.ConstantAccess(a, n, h->metrics);
      break;
    case kJitMemTexture:
      h->st->memory.TextureAccess(a, n, h->metrics);
      break;
  }
}

Status MapError(const ProgramSet& ps, int rc) {
  const int code = rc >> 16;
  const std::size_t index = static_cast<std::size_t>(rc & 0xffff);
  switch (code) {
    case kJitErrLoadUnbound:
      return Status::Invalid("unbound buffer " + ps.buffer_names[index]);
    case kJitErrStoreUnbound:
      return Status::Invalid("write to unbound or read-only buffer " +
                             ps.buffer_names[index]);
    case kJitErrMaskUnbound:
      return Status::Invalid("unbound constant mask " +
                             ps.const_masks[index].name);
  }
  return Status::Internal("native tier returned unknown error code");
}

}  // namespace

bool NativeBindingsHold(const ProgramSet& ps, const Launch& launch) {
  std::vector<const BufferBinding*> buffers;
  for (const auto& name : ps.buffer_names)
    buffers.push_back(launch.FindBuffer(name));
  std::vector<char> masks;
  for (const auto& ref : ps.const_masks)
    masks.push_back(launch.const_masks.count(ref.name) != 0);
  for (const Program& prog : ps.programs)
    for (const Insn& I : prog.code) {
      const std::size_t b = static_cast<std::size_t>(I.buffer);
      if ((I.op == Op::kLoadImage && !buffers[b]) ||
          (I.op == Op::kStore && !(buffers[b] && buffers[b]->writable)) ||
          (I.op == Op::kLoadConst && !masks[b]))
        return false;
    }
  return true;
}

Status RunBlockNative(const Launch& launch, const ProgramSet& ps,
                      const NativeProgram& native,
                      const hw::DeviceSpec& device, int block_x_idx,
                      int block_y_idx, Metrics* metrics,
                      std::uint64_t* executed_insns) {
  HIPACC_CHECK(launch.kernel != nullptr && metrics != nullptr);
  BlockState st(launch, device, block_x_idx, block_y_idx, metrics);
  Result<BlockState::Plan> begun = st.Begin();
  if (!begun.ok()) return begun.status();
  const BlockState::Plan plan = begun.value();
  const Program* prog = ps.Find(plan.region);
  const JitWarpFn fn = native.Find(plan.region);
  if (!prog || !fn)
    return Status::Internal("no native program for region of kernel " +
                            ps.kernel_name);

  NativeScratch& scratch = ThreadScratch();
  scratch.buffers.clear();
  scratch.buffers.reserve(ps.buffer_names.size());
  for (const auto& name : ps.buffer_names) {
    JitBuffer jb;
    if (const BufferBinding* bound = launch.FindBuffer(name)) {
      jb.data = bound->data;
      jb.width = bound->width;
      jb.height = bound->height;
      jb.stride = bound->stride;
      jb.writable = bound->writable ? 1 : 0;
      jb.bound = 1;
    }
    scratch.buffers.push_back(jb);
  }
  scratch.mask_tables.clear();
  scratch.mask_tables.reserve(ps.const_masks.size());
  for (const auto& ref : ps.const_masks) {
    JitMaskTable mt;
    const auto it = launch.const_masks.find(ref.name);
    if (it != launch.const_masks.end()) {
      mt.data = it->second.data();
      mt.size = it->second.size();
      mt.bound = 1;
    }
    scratch.mask_tables.push_back(mt);
  }

  std::vector<double> seeds;
  seeds.reserve(prog->params.size());
  for (const ParamSeed& p : prog->params)
    seeds.push_back(p.Value(launch.scalar_args));

  const hw::GridDim grid = hw::ComputeGrid(launch.config, launch.width,
                                           launch.height, launch.kernel->ppt);
  scratch.regs.resize(static_cast<std::size_t>(prog->num_regs) * kJitMaxWarp);

  HostCtx host{&st, metrics};
  JitWarpCtx ctx;
  ctx.warp_size = st.warp_size;
  ctx.tid_xi = st.tid_xi.data();
  ctx.tid_yi = st.tid_yi.data();
  ctx.gid_xi = st.gid_xi.data();
  ctx.gid_yi = st.gid_yi.data();
  ctx.bix = st.bix;
  ctx.biy = st.biy;
  ctx.block_dim_x = launch.config.block_x;
  ctx.block_dim_y = launch.config.block_y;
  ctx.grid_dim_x = grid.blocks_x;
  ctx.grid_dim_y = grid.blocks_y;
  ctx.image_w = launch.width;
  ctx.image_h = launch.height;
  ctx.regs = scratch.regs.data();
  static_assert(sizeof(LaneMask) == kJitMaxWarp);
  ctx.masks = st.active.data();
  ctx.tile = st.tile.data();
  ctx.tile_w = st.tile_w;
  ctx.tile_h = st.tile_h;
  ctx.buffers = scratch.buffers.data();
  ctx.mask_tables = scratch.mask_tables.data();
  // The ABI counters are unsigned long long (self-contained header);
  // Metrics uses std::uint64_t. Accumulate locally and flush on every exit
  // path — including error returns — like the VM's CostCounters.
  struct Counters {
    Metrics* m;
    std::uint64_t* out_insns;
    unsigned long long alu = 0, sfu = 0, oob = 0, insns = 0;
    ~Counters() {
      m->alu_ops += alu;
      m->sfu_calls += sfu;
      m->oob_violations += oob;
      if (out_insns) *out_insns += insns;
    }
  } c{metrics, executed_insns};
  ctx.alu = &c.alu;
  ctx.sfu = &c.sfu;
  ctx.oob = &c.oob;
  ctx.insns = &c.insns;
  ctx.mem_access = &MemAccessThunk;
  ctx.host = &host;

  for (int w = 0; w < plan.warps; ++w) {
    st.BuildWarpContext(w, plan.threads);
    if (!AnyActive(st.active)) continue;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const std::size_t slot = prog->params[k].reg;
      std::fill_n(scratch.regs.data() + slot * kJitMaxWarp, kJitMaxWarp,
                  seeds[k]);
    }
    const int rc = fn(&ctx);
    if (rc != 0) return MapError(ps, rc);
  }
  return Status::Ok();
}

}  // namespace hipacc::sim::jit
