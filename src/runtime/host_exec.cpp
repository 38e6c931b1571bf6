#include "runtime/host_exec.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ast/type.hpp"
#include "sim/lane_exec.hpp"
#include "sim/simulator.hpp"
#include "support/parallel_for.hpp"
#include "support/string_utils.hpp"

namespace hipacc::runtime {
namespace {

using namespace hipacc::ast;
using sim::Coord;
using sim::CoordKind;
using sim::Insn;
using sim::Op;
using sim::Program;
using sim::ProgramSet;

/// Pixels interpreted per dispatch of one instruction. Wider chunks amortise
/// dispatch further but grow the per-thread register file (num_regs * width
/// doubles); 256 keeps a typical kernel's file inside L1/L2.
constexpr int kLaneWidth = 256;

template <int kFixed>
using Core = sim::LaneCore<kFixed, sim::RowLanes, sim::NullModel>;

/// One instruction of the host stream a launch lowers each region program
/// into (see Lower): a bytecode instruction run as the VM runs it, or a
/// fused convolution tap `acc += coeff * image(gid + off)`.
struct HostInsn {
  const Insn* insn = nullptr;  ///< the instruction; for a tap, its image load
  std::int32_t jump = -1;      ///< branch target, renumbered into the stream
  bool tap = false;
  std::uint16_t acc = 0;  ///< tap: accumulator register
  float coeff = 0.0f;     ///< tap: mask coefficient, read at lowering
};

/// A region program lowered for one launch.
struct HostProgram {
  const Program* source = nullptr;
  const std::vector<double>* seeds = nullptr;
  std::vector<HostInsn> code;
};

/// One lane of a fused tap: the VM's float kMul of the two loaded values,
/// then its float kAddAssign into the accumulator, rounded exactly as there.
/// Lowering never fuses a NaN coefficient, so operand order cannot pick a
/// different NaN payload.
inline double TapLane(double acc, float coeff, float px) {
  return sim::CombineLane(ScalarType::kFloat, AssignOp::kAddAssign, acc,
                          static_cast<double>(coeff * px));
}

/// Everything resolved once per launch and shared read-only by the row
/// workers: the launch binding table and the lowered programs.
struct ExecPlan {
  const ProgramSet* ps = nullptr;
  sim::LaunchBindings bind;
  std::vector<HostProgram> programs;  // parallel to ps->programs
  int width = 0;
  int height = 0;
  // Band boundaries of the nine-region pixel partition (x: [0,x1) [x1,x2)
  // [x2,W), same for y), and the program chosen for each band pair.
  int x1 = 0, x2 = 0, y1 = 0, y2 = 0;
  const Program* grid[3][3] = {};
};

constexpr Region kRegionGrid[3][3] = {
    {Region::kTopLeft, Region::kTop, Region::kTopRight},
    {Region::kLeft, Region::kInterior, Region::kRight},
    {Region::kBottomLeft, Region::kBottom, Region::kBottomRight},
};

/// Runs one lowered program over lanes (x0 .. x0+n-1, y) on the lane core.
/// Full chunks run the kFixed = kLaneWidth instantiation, whose lane loops
/// have a compile-time trip count; partial chunks pass kFixed = 0 and their
/// n. Infallible: every failure mode is rejected up front by
/// ValidateProgram / the binding check.
template <int kFixed>
void ExecChunk(const ExecPlan& plan, const HostProgram& prog, int x0, int y,
               int n_lanes) {
  const int n = kFixed > 0 ? kFixed : n_lanes;
  sim::LaneFile& file = sim::LaneFile::ThisThread();
  file.Fit(*prog.source, kLaneWidth);
  const sim::RowLanes lanes{x0, y};
  sim::NullModel model;
  const Core<kFixed> core(file, plan.bind, lanes, model, n);
  core.Seed(*prog.source, *prog.seeds);

  const HostInsn* code = prog.code.data();
  const std::int32_t end = static_cast<std::int32_t>(prog.code.size());
  std::int32_t pc = 0;
  while (pc < end) {
    const HostInsn& H = code[pc];
    const Insn& I = *H.insn;
    if (H.tap) {
      // The image load is on mask slot 0, so every lane accumulates.
      double* acc = core.Reg(H.acc);
      const float coeff = H.coeff;
      const sim::BufferBinding& buf =
          *plan.bind.buffers[static_cast<std::size_t>(I.buffer)];
      const std::ptrdiff_t off = lanes.Row(buf, I, n);
      if (off >= 0) {
        const float* src = buf.data + off;
        for (int l = 0; l < n; ++l) acc[l] = TapLane(acc[l], coeff, src[l]);
      } else {
        double* px = core.Reg(I.dst);  // dead after the tap: free scratch
        core.template LoadImage<true>(I, px);
        for (int l = 0; l < n; ++l)
          acc[l] = TapLane(acc[l], coeff, static_cast<float>(px[l]));
      }
      ++pc;
      continue;
    }
    // Mask slot 0 is the chunk's active mask: every lane, since
    // ValidateProgram rejects programs that write it. Instructions
    // predicated on it run the mask-free lane loops, which vectorise.
    const bool taken = I.mask == 0 ? core.template Exec<true>(I)
                                   : core.template Exec<false>(I);
    pc = taken ? H.jump : pc + 1;
  }
}

/// Rejects programs whose host execution could diverge from the simulator:
/// scratchpad staging (tile contents depend on the block shape), texture or
/// hardware-resolved boundary handling, and any thread/block-shape dependent
/// index. Also rejects writes to mask slot 0, which the executor's mask-free
/// lane loops assume holds every lane. Pure value computations pass.
Status ValidateProgram(const Program& prog, const std::string& kernel) {
  auto unsupported = [&](const char* what) {
    return Status::Unimplemented(
        StrFormat("host executor: kernel '%s' uses %s",
                           kernel.c_str(), what));
  };
  for (const Insn& I : prog.code) {
    if (I.op == Op::kLoadShared) return unsupported("scratchpad staging");
    if (I.op == Op::kLoadImage && (I.sub == 1 || I.hw_bh))
      return unsupported("texture/hardware boundary handling");
    if (I.op == Op::kThreadIdx) {
      const ThreadIndexKind kind = static_cast<ThreadIndexKind>(I.sub);
      if (kind != ThreadIndexKind::kGlobalIdX &&
          kind != ThreadIndexKind::kGlobalIdY)
        return unsupported("block-shape dependent thread indexing");
    }
    for (const Coord* c : {&I.cx, &I.cy})
      if (c->kind == CoordKind::kTidX || c->kind == CoordKind::kTidY)
        return unsupported("thread-local coordinates");
    if ((I.op == Op::kMaskIf && (I.dst == 0 || I.b == 0)) ||
        (I.op == Op::kLoopHead && I.dst == 0))
      return unsupported("a write to the active-lane mask");
  }
  return Status::Ok();
}

// Register def/use for DeadFrom. Only straight-line programs are fused, so
// branch and loop instructions never reach these.

bool ReadsReg(const Insn& I, std::uint16_t r) {
  auto coord = [r](const Coord& c) {
    return c.kind == CoordKind::kReg && c.reg == r;
  };
  switch (I.op) {
    case Op::kConst:
    case Op::kThreadIdx:
    case Op::kBarrier:
    case Op::kAccount:
      return false;
    case Op::kCopy:
    case Op::kConvert:
    case Op::kUnary:
      return I.a == r;
    case Op::kBinary:
    case Op::kCall:
      return I.a == r || I.b == r;
    case Op::kSelect:
      return I.a == r || I.b == r || I.c == r;
    case Op::kAssign:  // read-modify-write, predicated
      return I.a == r || I.dst == r;
    case Op::kStore:
      return I.a == r || coord(I.cx) || coord(I.cy);
    case Op::kLoadImage:
    case Op::kLoadConst:
      return coord(I.cx) || coord(I.cy);
    default:
      return true;
  }
}

/// True when `I` writes every lane of register r (and its type).
bool OverwritesReg(const Insn& I, std::uint16_t r) {
  switch (I.op) {
    case Op::kConst:
    case Op::kCopy:
    case Op::kConvert:
    case Op::kUnary:
    case Op::kBinary:
    case Op::kSelect:
    case Op::kCall:
    case Op::kThreadIdx:
    case Op::kLoadImage:
    case Op::kLoadConst:
      return I.dst == r;
    default:
      return false;
  }
}

/// Straight-line liveness: r is dead at `from` when it is overwritten
/// before any read, or never referenced again.
bool DeadFrom(const std::vector<Insn>& code, std::size_t from,
              std::uint16_t r) {
  for (std::size_t pc = from; pc < code.size(); ++pc) {
    if (ReadsReg(code[pc], r)) return false;
    if (OverwritesReg(code[pc], r)) return true;
  }
  return true;
}

/// Matches a convolution tap at code[pc..pc+3] of a straight-line program:
/// a constant-mask read at literal offsets and an image read at gid+offset
/// (either order), their float kMul (either operand order), and a float
/// `acc += product`, all on mask slot 0, with the three temporaries dead
/// afterwards. Fills `tap` with the image load, accumulator and coefficient.
bool MatchTap(const std::vector<Insn>& code, std::size_t pc,
              const std::vector<sim::LaunchBindings::Mask>& masks,
              HostInsn* tap) {
  if (pc + 4 > code.size()) return false;
  const Insn* ld_mask = &code[pc];
  const Insn* ld_image = &code[pc + 1];
  if (ld_mask->op == Op::kLoadImage) std::swap(ld_mask, ld_image);
  const Insn& mul = code[pc + 2];
  const Insn& add = code[pc + 3];
  const std::uint16_t c = ld_mask->dst;
  const std::uint16_t px = ld_image->dst;
  const bool shape =
      ld_mask->op == Op::kLoadConst && ld_mask->mask == 0 &&
      ld_mask->cx.kind == CoordKind::kImm &&
      ld_mask->cy.kind == CoordKind::kImm && ld_image->op == Op::kLoadImage &&
      ld_image->mask == 0 && ld_image->cx.kind == CoordKind::kGidX &&
      ld_image->cy.kind == CoordKind::kGidY && c != px &&
      mul.op == Op::kBinary &&
      static_cast<BinaryOp>(mul.sub) == BinaryOp::kMul &&
      mul.type == ScalarType::kFloat &&
      ((mul.a == c && mul.b == px) || (mul.a == px && mul.b == c)) &&
      add.op == Op::kAssign &&
      static_cast<AssignOp>(add.sub) == AssignOp::kAddAssign &&
      add.type == ScalarType::kFloat && add.mask == 0 && add.a == mul.dst &&
      add.dst != c && add.dst != px && add.dst != mul.dst;
  if (!shape) return false;
  // A read outside the table (0 on every engine) is left to the lane core.
  const sim::LaunchBindings::Mask& mt =
      masks[static_cast<std::size_t>(ld_mask->buffer)];
  const std::uint64_t at =
      static_cast<std::uint64_t>(ld_mask->cy.off) * mt.width + ld_mask->cx.off;
  if (at >= mt.data->size() || std::isnan((*mt.data)[at])) return false;
  const float coeff = (*mt.data)[at];
  for (const std::uint16_t r : {c, px, mul.dst})
    if (!DeadFrom(code, pc + 4, r)) return false;
  tap->insn = ld_image;
  tap->tap = true;
  tap->acc = add.dst;
  tap->coeff = coeff;
  return true;
}

/// Lowers one region program into the host stream: drops the cost-only
/// kAccount / kBarrier, fuses convolution taps (MatchTap) when the program
/// has no branches or loops, and renumbers branch targets. Runs after
/// the binding check, so mask coefficients are known.
HostProgram Lower(const Program& prog, const sim::LaunchBindings& bind,
                  std::size_t index) {
  const std::vector<sim::LaunchBindings::Mask>& masks = bind.masks;
  const std::vector<Insn>& code = prog.code;
  bool straight = true;
  for (const Insn& I : code)
    if (I.op == Op::kMaskIf || I.op == Op::kJumpIfNone ||
        I.op == Op::kLoopHead || I.op == Op::kLoopInc)
      straight = false;
  HostProgram out;
  out.source = &prog;
  out.seeds = &bind.seeds[index];
  out.code.reserve(code.size());
  std::vector<std::int32_t> renumber(code.size() + 1);
  std::size_t pc = 0;
  while (pc < code.size()) {
    renumber[pc] = static_cast<std::int32_t>(out.code.size());
    const Insn& I = code[pc];
    HostInsn tap;
    if (I.op == Op::kAccount || I.op == Op::kBarrier) {
      ++pc;
    } else if (straight && MatchTap(code, pc, masks, &tap)) {
      out.code.push_back(tap);
      pc += 4;  // a straight-line program has no branch into the sequence
    } else {
      out.code.push_back(HostInsn{&I, I.jump});
      ++pc;
    }
  }
  renumber[code.size()] = static_cast<std::int32_t>(out.code.size());
  for (HostInsn& h : out.code)
    if (!h.tap && (h.insn->op == Op::kJumpIfNone ||
                   h.insn->op == Op::kLoopHead || h.insn->op == Op::kLoopInc))
      h.jump = renumber[static_cast<std::size_t>(h.jump)];
  return out;
}

/// Builds the band partition and per-band program table. With a single
/// program variant the whole image is one band; otherwise the halo cuts
/// three bands per axis and each band pair maps to its Figure 3 region.
Status PlanRegions(const ProgramSet& ps, int width, int height, int halo_x,
                   int halo_y, ExecPlan* plan) {
  // PPT kernels map one thread to several pixels; the host executor's
  // one-virtual-thread-per-pixel iteration cannot reproduce that (the
  // interior variants carry no rejectable node, so gate on the set itself).
  if (ps.ppt > 1)
    return Status::Unimplemented(StrFormat(
        "host executor: kernel '%s' uses %d pixels per thread",
        ps.kernel_name.c_str(), ps.ppt));
  if (ps.programs.size() == 1) {
    plan->x1 = 0;
    plan->x2 = width;
    plan->y1 = 0;
    plan->y2 = height;
    for (auto& row : plan->grid)
      for (auto& cell : row) cell = &ps.programs.front();
    return ValidateProgram(ps.programs.front(), ps.kernel_name);
  }
  if (halo_x < 0 || halo_y < 0 || width < 2 * halo_x || height < 2 * halo_y)
    return Status::Unimplemented(StrFormat(
        "host executor: %dx%d image smaller than twice the %dx%d halo",
        width, height, halo_x, halo_y));
  plan->x1 = halo_x;
  plan->x2 = width - halo_x;
  plan->y1 = halo_y;
  plan->y2 = height - halo_y;
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      const Program* prog = ps.Find(kRegionGrid[r][c]);
      if (prog == nullptr)
        return Status::Unimplemented(StrFormat(
            "host executor: kernel '%s' has no %s program",
            ps.kernel_name.c_str(), to_string(kRegionGrid[r][c])));
      HIPACC_RETURN_IF_ERROR(ValidateProgram(*prog, ps.kernel_name));
      plan->grid[r][c] = prog;
    }
  }
  return Status::Ok();
}

void ExecRow(const ExecPlan& plan, int y) {
  const int row = y < plan.y1 ? 0 : (y < plan.y2 ? 1 : 2);
  const ProgramSet& ps = *plan.ps;
  const int xs[4] = {0, plan.x1, plan.x2, plan.width};
  for (int col = 0; col < 3; ++col) {
    const HostProgram& prog = plan.programs[static_cast<std::size_t>(
        plan.grid[row][col] - ps.programs.data())];
    int x0 = xs[col];
    for (; x0 + kLaneWidth <= xs[col + 1]; x0 += kLaneWidth)
      ExecChunk<kLaneWidth>(plan, prog, x0, y, kLaneWidth);
    if (x0 < xs[col + 1]) ExecChunk<0>(plan, prog, x0, y, xs[col + 1] - x0);
  }
}

}  // namespace

Status RunOnHost(const sim::Launch& launch, int halo_x, int halo_y,
                 const HostExecOptions& options) {
  if (launch.programs == nullptr || launch.programs->programs.empty())
    return Status::Unimplemented(
        "host executor: launch carries no bytecode programs");
  const ProgramSet& ps = *launch.programs;
  ExecPlan plan;
  plan.ps = &ps;
  plan.width = launch.width;
  plan.height = launch.height;
  HIPACC_RETURN_IF_ERROR(
      PlanRegions(ps, launch.width, launch.height, halo_x, halo_y, &plan));
  // The simulator fails at the first instruction that needs a missing or
  // read-only binding; rows here cannot stop part way, so the same checks
  // (and texts) come first.
  if (launch.kernel != nullptr)
    HIPACC_RETURN_IF_ERROR(sim::ValidateBindings(launch));
  plan.bind = sim::BindLaunch(ps, launch);
  HIPACC_RETURN_IF_ERROR(sim::FirstBindingFault(ps, plan.bind));
  for (std::size_t i = 0; i < ps.programs.size(); ++i)
    plan.programs.push_back(Lower(ps.programs[i], plan.bind, i));
  ParallelFor(
      0, launch.height, [&plan](int y) { ExecRow(plan, y); },
      options.threads > 0 ? static_cast<unsigned>(options.threads) : 0);
  return Status::Ok();
}

}  // namespace hipacc::runtime
