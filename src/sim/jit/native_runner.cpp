#include "sim/jit/native_runner.hpp"

#include <algorithm>
#include <vector>

#include "sim/block_state.hpp"
#include "sim/jit/abi.hpp"
#include "sim/lane_exec.hpp"

namespace hipacc::sim::jit {
namespace {

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

NativeTables MakeNativeTables(const LaunchBindings& bind) {
  NativeTables tables;
  for (const BufferBinding* bound : bind.buffers) {
    JitBuffer& jb = tables.buffers.emplace_back();
    if (bound == nullptr) continue;
    jb.data = bound->data;
    jb.width = bound->width;
    jb.height = bound->height;
    jb.stride = bound->stride;
    jb.writable = bound->writable ? 1 : 0;
    jb.bound = 1;
  }
  for (const LaunchBindings::Mask& mask : bind.masks) {
    JitMaskTable& mt = tables.masks.emplace_back();
    if (mask.data == nullptr) continue;
    mt.data = mask.data->data();
    mt.size = mask.data->size();
    mt.bound = 1;
  }
  return tables;
}

Status RunBlockNative(const Launch& launch, const ProgramSet& ps,
                      const LaunchBindings& bind, const NativeTables& tables,
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

  const std::vector<double>& seeds =
      bind.seeds[static_cast<std::size_t>(prog - ps.programs.data())];

  const hw::GridDim grid = hw::ComputeGrid(launch.config, launch.width,
                                           launch.height, launch.kernel->ppt);
  // The calling thread's register file, the one the VM runs on: the
  // generated code uses the same layout and write-before-read discipline.
  static_assert(kJitMaxWarp == kMaxWarpWidth);
  LaneFile& file = LaneFile::ThisThread();
  file.Fit(*prog, kJitMaxWarp);
  double* const regs = file.regs.data();

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
  ctx.regs = regs;
  static_assert(sizeof(LaneMask) == kJitMaxWarp);
  ctx.masks = st.active.data();
  ctx.tile = st.tile.data();
  ctx.tile_w = st.tile_w;
  ctx.tile_h = st.tile_h;
  ctx.buffers = tables.buffers.data();
  ctx.mask_tables = tables.masks.data();
  // The ABI counters are unsigned long long (self-contained header);
  // Metrics uses std::uint64_t. Accumulate locally and flush on every exit
  // path — including error returns — like the VM's SimModel.
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
      std::fill_n(regs + slot * kJitMaxWarp, kJitMaxWarp, seeds[k]);
    }
    const int rc = fn(&ctx);
    if (rc != 0) return MapError(ps, rc);
  }
  return Status::Ok();
}

}  // namespace hipacc::sim::jit
