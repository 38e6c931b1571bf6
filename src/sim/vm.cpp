#include "sim/vm.hpp"

#include <algorithm>

#include "sim/block_state.hpp"
#include "sim/lane_exec.hpp"

namespace hipacc::sim {
namespace {

using Core = LaneCore<0, WarpLanes, SimModel>;

class VmRunner {
 public:
  VmRunner(const Launch& launch, const ProgramSet& ps,
           const LaunchBindings& bind, const hw::DeviceSpec& device, int bx,
           int by, Metrics* metrics)
      : st_(launch, device, bx, by, metrics), ps_(ps), bind_(bind) {}

  Status Run(std::uint64_t* executed_insns) {
    Result<BlockState::Plan> begun = st_.Begin();
    if (!begun.ok()) return begun.status();
    const BlockState::Plan plan = begun.value();
    const Program* prog = ps_.Find(plan.region);
    if (!prog)
      return Status::Internal("no bytecode program for region of kernel " +
                              ps_.kernel_name);
    const std::vector<double>& seeds =
        bind_.seeds[static_cast<std::size_t>(prog - ps_.programs.data())];

    LaneFile& file = LaneFile::ThisThread();
    file.Fit(*prog, kMaxWarpWidth);
    const WarpLanes lanes{st_, hw::ComputeGrid(st_.launch.config,
                                               st_.launch.width,
                                               st_.launch.height,
                                               st_.launch.kernel->ppt)};
    SimModel model(st_);
    const Core core(file, bind_, lanes, model, st_.warp_size);
    for (int w = 0; w < plan.warps; ++w) {
      st_.BuildWarpContext(w, plan.threads);
      if (!AnyActive(st_.active)) continue;
      std::copy(st_.active.begin(), st_.active.end(), core.Mask(0));
      core.Seed(*prog, seeds);
      HIPACC_RETURN_IF_ERROR(ExecWarp(*prog, core, model, executed_insns));
    }
    return Status::Ok();
  }

 private:
  /// The VM's dispatch loop: interpreter-parity costs per instruction,
  /// binding errors when an instruction first needs a binding, scratchpad
  /// reads; every other meaning comes from the lane core.
  Status ExecWarp(const Program& prog, const Core& core, SimModel& model,
                  std::uint64_t* executed_insns) {
    const Insn* code = prog.code.data();
    const std::int32_t n = static_cast<std::int32_t>(prog.code.size());
    std::uint64_t count = 0;
    std::int32_t pc = 0;
    while (pc < n) {
      const Insn& I = code[pc];
      ++count;
      model.Alu(I.alu_cost);
      model.Sfu(I.sfu_cost);
      switch (I.op) {
        case Op::kLoadShared:
          LoadShared(I, core, model);
          break;
        case Op::kLoadImage:
        case Op::kLoadConst:
        case Op::kStore:
          HIPACC_RETURN_IF_ERROR(BindingFault(ps_, bind_, I));
          [[fallthrough]];
        default:
          if (core.Exec<false>(I)) {
            pc = I.jump;
            continue;
          }
      }
      ++pc;
    }
    if (executed_insns) *executed_insns += count;
    return Status::Ok();
  }

  void LoadShared(const Insn& I, const Core& core, SimModel& model) {
    double* d = core.Reg(I.dst);
    const std::uint8_t* mk = core.Mask(I.mask);
    int cxs[kMaxWarpWidth];
    int cys[kMaxWarpWidth];
    core.Coords<false>(I.cx, mk, cxs);
    core.Coords<false>(I.cy, mk, cys);
    for (int l = 0; l < st_.warp_size; ++l) {
      if (!mk[l]) {
        d[l] = 0.0;
        continue;
      }
      const int sx = cxs[l];
      const int sy = cys[l];
      if (sx < 0 || sx >= st_.tile_w || sy < 0 || sy >= st_.tile_h) {
        model.Oob();
        d[l] = 0.0;
        continue;
      }
      const std::uint64_t addr =
          static_cast<std::uint64_t>(sy) * st_.tile_w + sx;
      d[l] = static_cast<double>(st_.tile[addr]);
      model.Touch(addr);
    }
    core.SetType(I.dst, ast::ScalarType::kFloat);
    model.Commit(MemKind::kShared);
  }

  BlockState st_;
  const ProgramSet& ps_;
  const LaunchBindings& bind_;
};

}  // namespace

Status RunBlockBytecode(const Launch& launch, const ProgramSet& programs,
                        const LaunchBindings& bind,
                        const hw::DeviceSpec& device, int block_x_idx,
                        int block_y_idx, Metrics* metrics,
                        std::uint64_t* executed_insns) {
  HIPACC_CHECK(launch.kernel != nullptr && metrics != nullptr);
  return VmRunner(launch, programs, bind, device, block_x_idx, block_y_idx,
                  metrics)
      .Run(executed_insns);
}

}  // namespace hipacc::sim
