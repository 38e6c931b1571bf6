#include "sim/vm.hpp"

#include <vector>

#include "dsl/boundary.hpp"
#include "sim/block_state.hpp"

namespace hipacc::sim {
namespace {

using namespace hipacc::ast;

/// Resolves one coordinate under the read's guard set. Returns -1 when the
/// constant value must be substituted; sets *violation for unguarded OOB.
/// (Identical to the interpreter's ResolveCoord.)
int ResolveCoord(int c, int n, BoundaryMode mode, bool check_lo, bool check_hi,
                 bool hardware_resolved, bool* violation) {
  if (c >= 0 && c < n) return c;
  if (hardware_resolved)  // texture unit applies the address mode silently
    return dsl::ResolveBoundaryIndex(
        c, n, mode == BoundaryMode::kUndefined ? BoundaryMode::kClamp : mode);
  const bool guarded = (c < 0 && check_lo) || (c >= n && check_hi);
  if (!guarded) {
    *violation = true;
    return c < 0 ? 0 : n - 1;  // clamp as a safety net after recording
  }
  return dsl::ResolveBoundaryIndex(c, n, mode);
}

/// Launch-time bindings of a program's buffer/mask tables, resolved once per
/// block. Null entries are legal until an instruction touches them.
struct BindCtx {
  std::vector<const BufferBinding*> buffers;
  struct MaskBind {
    const std::vector<float>* data = nullptr;
    int width = 1;
  };
  std::vector<MaskBind> masks;
};

// Lane loops templated on the operator so the per-lane switch inside the
// Eval*Lane helpers constant-folds away (at -O2 the optimizer does not
// unswitch the loop by itself); dispatch happens once per instruction, not
// once per lane. Reading both operands before the write keeps dst aliasing
// either source safe, exactly like the generic handlers did.

template <ast::BinaryOp op, bool float_math>
void BinaryLanes(const WarpVal& a, const WarpVal& b, WarpVal* d, int warp) {
  for (int l = 0; l < warp; ++l) {
    const std::size_t i = static_cast<std::size_t>(l);
    d->lanes[i] = EvalBinaryLane(op, float_math, a.lanes[i], b.lanes[i]);
  }
}

template <ast::AssignOp op, bool float_math>
void AssignLanes(const WarpVal& s, WarpVal* d, const LaneMask& mk,
                 ast::ScalarType to, bool convert, int warp) {
  constexpr ast::ScalarType kFolded =
      float_math ? ast::ScalarType::kFloat : ast::ScalarType::kInt;
  for (int l = 0; l < warp; ++l) {
    const std::size_t i = static_cast<std::size_t>(l);
    if (!mk[i]) continue;
    const double rhs = convert ? ConvertLaneValue(s.lanes[i], to) : s.lanes[i];
    d->lanes[i] = CombineLane(kFolded, op, d->lanes[i], rhs);
  }
}

template <VmBuiltin fn>
void BuiltinLanes(const WarpVal& a, const WarpVal& b, WarpVal* d, int warp) {
  for (int l = 0; l < warp; ++l) {
    const std::size_t i = static_cast<std::size_t>(l);
    d->lanes[i] = EvalBuiltinLane(fn, a.lanes[i], b.lanes[i]);
  }
}

/// Accumulates the interpreter-parity ALU/SFU costs in locals the compiler
/// can keep in registers; the destructor flushes them into the Metrics on
/// every exit path (including error returns) so totals stay exact.
struct CostCounters {
  Metrics* m;
  std::uint64_t alu = 0;
  std::uint64_t sfu = 0;
  ~CostCounters() {
    m->alu_ops += alu;
    m->sfu_calls += sfu;
  }
};

/// Per-thread scratch shared by consecutive VmRunner instances on the same
/// worker thread (one simulated block each).
struct VmScratch {
  std::vector<WarpVal> regs;
  std::vector<LaneMask> masks;
};

VmScratch& ThreadScratch() {
  static thread_local VmScratch scratch;
  return scratch;
}

class VmRunner {
 public:
  VmRunner(const Launch& launch, const ProgramSet& ps,
           const hw::DeviceSpec& device, int bx, int by, Metrics* metrics)
      : st_(launch, device, bx, by, metrics),
        ps_(ps),
        regs_(ThreadScratch().regs),
        masks_(ThreadScratch().masks) {}

  Status Run(std::uint64_t* executed_insns) {
    Result<BlockState::Plan> begun = st_.Begin();
    if (!begun.ok()) return begun.status();
    const BlockState::Plan plan = begun.value();
    const Program* prog = ps_.Find(plan.region);
    if (!prog)
      return Status::Internal("no bytecode program for region of kernel " +
                              ps_.kernel_name);

    bind_.buffers.reserve(ps_.buffer_names.size());
    for (const auto& name : ps_.buffer_names)
      bind_.buffers.push_back(st_.launch.FindBuffer(name));
    bind_.masks.reserve(ps_.const_masks.size());
    for (const auto& ref : ps_.const_masks) {
      BindCtx::MaskBind mb;
      const auto it = st_.launch.const_masks.find(ref.name);
      if (it != st_.launch.const_masks.end()) mb.data = &it->second;
      mb.width = ref.width;
      bind_.masks.push_back(mb);
    }

    std::vector<double> seeds;
    seeds.reserve(prog->params.size());
    for (const ParamSeed& p : prog->params)
      seeds.push_back(p.Value(st_.launch.scalar_args));

    grid_ = hw::ComputeGrid(st_.launch.config, st_.launch.width,
                            st_.launch.height, st_.launch.kernel->ppt);
    regs_.resize(static_cast<std::size_t>(prog->num_regs));
    masks_.resize(static_cast<std::size_t>(prog->num_masks));

    for (int w = 0; w < plan.warps; ++w) {
      st_.BuildWarpContext(w, plan.threads);
      if (!AnyActive(st_.active)) continue;
      masks_[0] = st_.active;
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        WarpVal& r = regs_[prog->params[k].reg];
        r.type = prog->params[k].type;
        r.lanes.fill(seeds[k]);
      }
      HIPACC_RETURN_IF_ERROR(ExecWarp(*prog, executed_insns));
    }
    return Status::Ok();
  }

 private:
  /// Materializes one coordinate for every lane of the warp, dispatching on
  /// the coordinate kind once instead of per lane. Lanes outside `mk` get 0
  /// for register coordinates (their values are never used — every consumer
  /// skips or zero-fills masked lanes) so stale register lanes are never
  /// cast to int.
  void CoordLanes(const Coord& c, const LaneMask& mk, int warp,
                  int* out) const {
    switch (c.kind) {
      case CoordKind::kReg: {
        const WarpVal& r = regs_[c.reg];
        for (int l = 0; l < warp; ++l) {
          const std::size_t i = static_cast<std::size_t>(l);
          out[l] = mk[i] ? static_cast<int>(r.lanes[i]) : 0;
        }
        break;
      }
      case CoordKind::kGidX:
        for (int l = 0; l < warp; ++l)
          out[l] = st_.gid_xi[static_cast<std::size_t>(l)] + c.off;
        break;
      case CoordKind::kGidY:
        for (int l = 0; l < warp; ++l)
          out[l] = st_.gid_yi[static_cast<std::size_t>(l)] + c.off;
        break;
      case CoordKind::kTidX:
        for (int l = 0; l < warp; ++l)
          out[l] = st_.tid_xi[static_cast<std::size_t>(l)] + c.off;
        break;
      case CoordKind::kTidY:
        for (int l = 0; l < warp; ++l)
          out[l] = st_.tid_yi[static_cast<std::size_t>(l)] + c.off;
        break;
      case CoordKind::kImm:
        for (int l = 0; l < warp; ++l) out[l] = c.off;
        break;
    }
  }

  Status ExecWarp(const Program& prog, std::uint64_t* executed_insns) {
    const Insn* code = prog.code.data();
    const std::int32_t n = static_cast<std::int32_t>(prog.code.size());
    const int warp = st_.warp_size;
    Metrics* m = st_.metrics;
    CostCounters cost{m};
    std::uint64_t count = 0;
    std::int32_t pc = 0;
    while (pc < n) {
      const Insn& I = code[pc];
      ++count;
      cost.alu += I.alu_cost;
      cost.sfu += I.sfu_cost;
      switch (I.op) {
        case Op::kConst: {
          // Lanes beyond the device's warp width are never read by any
          // handler, so only the live lanes are written here and in kCopy.
          WarpVal& d = regs_[I.dst];
          d.type = I.type;
          for (int l = 0; l < warp; ++l)
            d.lanes[static_cast<std::size_t>(l)] = I.imm;
          break;
        }

        case Op::kCopy: {
          const WarpVal& s = regs_[I.a];
          WarpVal& d = regs_[I.dst];
          d.type = s.type;
          if (&d != &s)
            for (int l = 0; l < warp; ++l)
              d.lanes[static_cast<std::size_t>(l)] =
                  s.lanes[static_cast<std::size_t>(l)];
          break;
        }

        case Op::kConvert: {
          const WarpVal& s = regs_[I.a];
          WarpVal& d = regs_[I.dst];
          const ScalarType from = s.type;
          if (from == I.type) {
            if (&d != &s)
              for (int l = 0; l < warp; ++l)
                d.lanes[static_cast<std::size_t>(l)] =
                    s.lanes[static_cast<std::size_t>(l)];
          } else {
            for (int l = 0; l < warp; ++l)
              d.lanes[static_cast<std::size_t>(l)] = ConvertLaneValue(
                  s.lanes[static_cast<std::size_t>(l)], I.type);
          }
          d.type = I.type;
          break;
        }

        case Op::kUnary: {
          const WarpVal& s = regs_[I.a];
          WarpVal& d = regs_[I.dst];
          const UnaryOp op = static_cast<UnaryOp>(I.sub);
          for (int l = 0; l < warp; ++l) {
            const std::size_t i = static_cast<std::size_t>(l);
            d.lanes[i] = EvalUnaryLane(op, I.type, s.lanes[i]);
          }
          d.type = I.type;
          break;
        }

        case Op::kBinary: {
          const WarpVal& a = regs_[I.a];
          const WarpVal& b = regs_[I.b];
          WarpVal& d = regs_[I.dst];
          const BinaryOp op = static_cast<BinaryOp>(I.sub);
          const bool fm = Promote(a.type, b.type) == ScalarType::kFloat;
          if (op == BinaryOp::kDiv) cost.alu += fm ? 5 : 16;
          switch (op) {
#define HIPACC_VM_BINARY(name)                            \
  case BinaryOp::name:                                    \
    if (fm)                                               \
      BinaryLanes<BinaryOp::name, true>(a, b, &d, warp);  \
    else                                                  \
      BinaryLanes<BinaryOp::name, false>(a, b, &d, warp); \
    break;
            HIPACC_VM_BINARY(kAdd)
            HIPACC_VM_BINARY(kSub)
            HIPACC_VM_BINARY(kMul)
            HIPACC_VM_BINARY(kDiv)
            HIPACC_VM_BINARY(kMod)
            HIPACC_VM_BINARY(kLt)
            HIPACC_VM_BINARY(kLe)
            HIPACC_VM_BINARY(kGt)
            HIPACC_VM_BINARY(kGe)
            HIPACC_VM_BINARY(kEq)
            HIPACC_VM_BINARY(kNe)
            HIPACC_VM_BINARY(kAnd)
            HIPACC_VM_BINARY(kOr)
#undef HIPACC_VM_BINARY
          }
          d.type = I.type;
          break;
        }

        case Op::kSelect: {
          const WarpVal& c = regs_[I.a];
          const WarpVal& t = regs_[I.b];
          const WarpVal& f = regs_[I.c];
          WarpVal& d = regs_[I.dst];
          for (int l = 0; l < warp; ++l) {
            const std::size_t i = static_cast<std::size_t>(l);
            const double cv = c.lanes[i];
            const double tv = t.lanes[i];
            const double fv = f.lanes[i];
            d.lanes[i] = cv != 0.0 ? tv : fv;
          }
          d.type = I.type;
          break;
        }

        case Op::kCall: {
          const WarpVal& a = regs_[I.a];
          const WarpVal& b = regs_[I.b];
          WarpVal& d = regs_[I.dst];
          switch (static_cast<VmBuiltin>(I.sub)) {
#define HIPACC_VM_BUILTIN(name)                    \
  case VmBuiltin::name:                            \
    BuiltinLanes<VmBuiltin::name>(a, b, &d, warp); \
    break;
            HIPACC_VM_BUILTIN(kExp)
            HIPACC_VM_BUILTIN(kExp2)
            HIPACC_VM_BUILTIN(kLog)
            HIPACC_VM_BUILTIN(kLog2)
            HIPACC_VM_BUILTIN(kSqrt)
            HIPACC_VM_BUILTIN(kRsqrt)
            HIPACC_VM_BUILTIN(kSin)
            HIPACC_VM_BUILTIN(kCos)
            HIPACC_VM_BUILTIN(kTan)
            HIPACC_VM_BUILTIN(kAtan)
            HIPACC_VM_BUILTIN(kAtan2)
            HIPACC_VM_BUILTIN(kPow)
            HIPACC_VM_BUILTIN(kFmod)
            HIPACC_VM_BUILTIN(kFabs)
            HIPACC_VM_BUILTIN(kFmin)
            HIPACC_VM_BUILTIN(kFmax)
            HIPACC_VM_BUILTIN(kFloor)
            HIPACC_VM_BUILTIN(kCeil)
            HIPACC_VM_BUILTIN(kRound)
            HIPACC_VM_BUILTIN(kMin)
            HIPACC_VM_BUILTIN(kMax)
            HIPACC_VM_BUILTIN(kAbs)
#undef HIPACC_VM_BUILTIN
          }
          d.type = I.type;
          break;
        }

        case Op::kThreadIdx: {
          WarpVal& d = regs_[I.dst];
          const ThreadIndexKind kind = static_cast<ThreadIndexKind>(I.sub);
          switch (kind) {
            case ThreadIndexKind::kThreadIdxX:
              CopyLanes(&d, st_.tid_x, warp);
              break;
            case ThreadIndexKind::kThreadIdxY:
              CopyLanes(&d, st_.tid_y, warp);
              break;
            case ThreadIndexKind::kGlobalIdX:
              CopyLanes(&d, st_.gid_x, warp);
              break;
            case ThreadIndexKind::kGlobalIdY:
              CopyLanes(&d, st_.gid_y, warp);
              break;
            case ThreadIndexKind::kBlockIdxX:
              FillLanes(&d, st_.bix, warp);
              break;
            case ThreadIndexKind::kBlockIdxY:
              FillLanes(&d, st_.biy, warp);
              break;
            case ThreadIndexKind::kBlockDimX:
              FillLanes(&d, st_.launch.config.block_x, warp);
              break;
            case ThreadIndexKind::kBlockDimY:
              FillLanes(&d, st_.launch.config.block_y, warp);
              break;
            case ThreadIndexKind::kGridDimX:
              FillLanes(&d, grid_.blocks_x, warp);
              break;
            case ThreadIndexKind::kGridDimY:
              FillLanes(&d, grid_.blocks_y, warp);
              break;
            case ThreadIndexKind::kImageW:
              FillLanes(&d, st_.launch.width, warp);
              break;
            case ThreadIndexKind::kImageH:
              FillLanes(&d, st_.launch.height, warp);
              break;
          }
          d.type = ScalarType::kInt;
          break;
        }

        case Op::kAssign: {
          const WarpVal& s = regs_[I.a];
          WarpVal& d = regs_[I.dst];
          const AssignOp op = static_cast<AssignOp>(I.sub);
          const LaneMask& mk = masks_[I.mask];
          const bool convert = s.type != I.type;
          const bool fm = I.type == ScalarType::kFloat;
          switch (op) {
#define HIPACC_VM_ASSIGN(name)                                       \
  case AssignOp::name:                                               \
    if (fm)                                                          \
      AssignLanes<AssignOp::name, true>(s, &d, mk, I.type, convert,  \
                                        warp);                       \
    else                                                             \
      AssignLanes<AssignOp::name, false>(s, &d, mk, I.type, convert, \
                                         warp);                      \
    break;
            HIPACC_VM_ASSIGN(kAssign)
            HIPACC_VM_ASSIGN(kAddAssign)
            HIPACC_VM_ASSIGN(kSubAssign)
            HIPACC_VM_ASSIGN(kMulAssign)
            HIPACC_VM_ASSIGN(kDivAssign)
#undef HIPACC_VM_ASSIGN
          }
          break;
        }

        case Op::kLoadImage: {
          HIPACC_RETURN_IF_ERROR(LoadImage(I, warp));
          break;
        }

        case Op::kLoadShared: {
          WarpVal& d = regs_[I.dst];
          const LaneMask& mk = masks_[I.mask];
          int cxs[kMaxWarpWidth];
          int cys[kMaxWarpWidth];
          CoordLanes(I.cx, mk, warp, cxs);
          CoordLanes(I.cy, mk, warp, cys);
          st_.addr_scratch.clear();
          for (int l = 0; l < warp; ++l) {
            const std::size_t i = static_cast<std::size_t>(l);
            if (!mk[i]) {
              d.lanes[i] = 0.0;
              continue;
            }
            const int sx = cxs[l];
            const int sy = cys[l];
            if (sx < 0 || sx >= st_.tile_w || sy < 0 || sy >= st_.tile_h) {
              ++m->oob_violations;
              d.lanes[i] = 0.0;
              continue;
            }
            const std::uint64_t addr =
                static_cast<std::uint64_t>(sy) * st_.tile_w + sx;
            d.lanes[i] = static_cast<double>(st_.tile[addr]);
            st_.addr_scratch.push_back(addr);
          }
          d.type = ScalarType::kFloat;
          st_.memory.SharedAccess(st_.addr_scratch, m);
          break;
        }

        case Op::kLoadConst: {
          const BindCtx::MaskBind& mb =
              bind_.masks[static_cast<std::size_t>(I.buffer)];
          if (!mb.data)
            return Status::Invalid(
                "unbound constant mask " +
                ps_.const_masks[static_cast<std::size_t>(I.buffer)].name);
          WarpVal& d = regs_[I.dst];
          const LaneMask& mk = masks_[I.mask];
          int cxs[kMaxWarpWidth];
          int cys[kMaxWarpWidth];
          CoordLanes(I.cx, mk, warp, cxs);
          CoordLanes(I.cy, mk, warp, cys);
          st_.addr_scratch.clear();
          for (int l = 0; l < warp; ++l) {
            const std::size_t i = static_cast<std::size_t>(l);
            if (!mk[i]) {
              d.lanes[i] = 0.0;
              continue;
            }
            const int sx = cxs[l];
            const int sy = cys[l];
            const std::uint64_t addr =
                static_cast<std::uint64_t>(sy) * mb.width + sx;
            if (addr >= mb.data->size()) {
              ++m->oob_violations;
              d.lanes[i] = 0.0;
              continue;
            }
            d.lanes[i] = static_cast<double>((*mb.data)[addr]);
            st_.addr_scratch.push_back(addr);
          }
          d.type = ScalarType::kFloat;
          st_.memory.ConstantAccess(st_.addr_scratch, m);
          break;
        }

        case Op::kStore: {
          const BufferBinding* buf =
              bind_.buffers[static_cast<std::size_t>(I.buffer)];
          if (!buf || !buf->writable)
            return Status::Invalid(
                "write to unbound or read-only buffer " +
                ps_.buffer_names[static_cast<std::size_t>(I.buffer)]);
          const WarpVal& v = regs_[I.a];
          const LaneMask& mk = masks_[I.mask];
          int cxs[kMaxWarpWidth];
          int cys[kMaxWarpWidth];
          CoordLanes(I.cx, mk, warp, cxs);
          CoordLanes(I.cy, mk, warp, cys);
          st_.addr_scratch.clear();
          for (int l = 0; l < warp; ++l) {
            const std::size_t i = static_cast<std::size_t>(l);
            if (!mk[i]) continue;
            const int px = cxs[l];
            const int py = cys[l];
            if (px < 0 || px >= buf->width || py < 0 || py >= buf->height) {
              ++m->oob_violations;
              continue;
            }
            const std::uint64_t addr =
                static_cast<std::uint64_t>(py) * buf->stride + px;
            buf->data[addr] = static_cast<float>(v.lanes[i]);
            st_.addr_scratch.push_back(addr);
          }
          st_.memory.GlobalAccess(st_.addr_scratch, /*is_write=*/true, m);
          break;
        }

        case Op::kBarrier:
          break;

        case Op::kAccount:
          break;

        case Op::kMaskIf: {
          const WarpVal& cond = regs_[I.a];
          const LaneMask in = masks_[I.mask];
          LaneMask& tm = masks_[I.dst];
          LaneMask& em = masks_[I.b];
          tm = in;
          em = in;
          for (int l = 0; l < warp; ++l) {
            const std::size_t i = static_cast<std::size_t>(l);
            const bool taken = in[i] && cond.lanes[i] != 0.0;
            tm[i] = taken;
            em[i] = in[i] && !taken;
          }
          break;
        }

        case Op::kJumpIfNone: {
          if (!AnyActive(masks_[I.mask])) {
            pc = I.jump;
            continue;
          }
          break;
        }

        case Op::kLoopInit: {
          const WarpVal& s = regs_[I.a];
          WarpVal& d = regs_[I.dst];
          // The interpreter seeds the loop variable with lo's raw lanes (no
          // int conversion) under an int type tag.
          if (&d != &s) d.lanes = s.lanes;
          d.type = ScalarType::kInt;
          break;
        }

        case Op::kLoopHead: {
          const WarpVal& var = regs_[I.a];
          const WarpVal& hi = regs_[I.b];
          const LaneMask& in = masks_[I.mask];
          LaneMask& im = masks_[I.dst];
          im = in;
          bool any = false;
          for (int l = 0; l < warp; ++l) {
            const std::size_t i = static_cast<std::size_t>(l);
            const bool live = in[i] && var.lanes[i] <= hi.lanes[i];
            im[i] = live;
            any = any || live;
          }
          if (!any) {
            pc = I.jump;
            continue;
          }
          break;
        }

        case Op::kLoopInc: {
          WarpVal& d = regs_[I.dst];
          const LaneMask& mk = masks_[I.mask];
          for (int l = 0; l < warp; ++l) {
            const std::size_t i = static_cast<std::size_t>(l);
            if (mk[i]) d.lanes[i] += I.imm;
          }
          pc = I.jump;
          continue;
        }
      }
      ++pc;
    }
    if (executed_insns) *executed_insns += count;
    return Status::Ok();
  }

  Status LoadImage(const Insn& I, int warp) {
    const BufferBinding* buf = bind_.buffers[static_cast<std::size_t>(I.buffer)];
    if (!buf)
      return Status::Invalid(
          "unbound buffer " + ps_.buffer_names[static_cast<std::size_t>(I.buffer)]);
    Metrics* m = st_.metrics;
    WarpVal& d = regs_[I.dst];
    const LaneMask& mk = masks_[I.mask];
    const bool tex = I.sub == 1;
    const bool hardware_resolved = I.hw_bh || tex;
    int cxs[kMaxWarpWidth];
    int cys[kMaxWarpWidth];
    CoordLanes(I.cx, mk, warp, cxs);
    CoordLanes(I.cy, mk, warp, cys);
    const int bw = buf->width;
    const int bh = buf->height;
    const int stride = buf->stride;
    const float* data = buf->data;
    st_.addr_scratch.clear();
    for (int l = 0; l < warp; ++l) {
      const std::size_t i = static_cast<std::size_t>(l);
      if (!mk[i]) {
        d.lanes[i] = 0.0;
        continue;
      }
      const int cx = cxs[l];
      const int cy = cys[l];
      // In-range fast path: boundary handling (of any mode) only matters
      // for out-of-range coordinates, which even border-region warps see on
      // a minority of lanes.
      if (static_cast<unsigned>(cx) < static_cast<unsigned>(bw) &&
          static_cast<unsigned>(cy) < static_cast<unsigned>(bh)) {
        const std::uint64_t addr =
            static_cast<std::uint64_t>(cy) * stride + cx;
        d.lanes[i] = static_cast<double>(data[addr]);
        st_.addr_scratch.push_back(addr);
        continue;
      }
      // Constant mode with guards: out-of-bounds lanes are predicated off
      // and produce the constant without touching memory.
      if (I.boundary == BoundaryMode::kConstant && !I.hw_bh) {
        const bool oob_x =
            (cx < 0 && I.checks.lo_x) || (cx >= buf->width && I.checks.hi_x);
        const bool oob_y =
            (cy < 0 && I.checks.lo_y) || (cy >= buf->height && I.checks.hi_y);
        if (oob_x || oob_y) {
          d.lanes[i] = static_cast<double>(I.cvalue);
          continue;
        }
      }
      bool violation = false;
      const int rx = ResolveCoord(cx, buf->width, I.boundary, I.checks.lo_x,
                                  I.checks.hi_x, hardware_resolved, &violation);
      const int ry = ResolveCoord(cy, buf->height, I.boundary, I.checks.lo_y,
                                  I.checks.hi_y, hardware_resolved, &violation);
      if (violation) ++m->oob_violations;
      if (rx < 0 || ry < 0) {
        d.lanes[i] = static_cast<double>(I.cvalue);
        continue;
      }
      const std::uint64_t addr = static_cast<std::uint64_t>(ry) * buf->stride + rx;
      d.lanes[i] = static_cast<double>(buf->data[addr]);
      st_.addr_scratch.push_back(addr);
    }
    d.type = ScalarType::kFloat;
    if (tex)
      st_.memory.TextureAccess(st_.addr_scratch, m);
    else
      st_.memory.GlobalAccess(st_.addr_scratch, /*is_write=*/false, m);
    return Status::Ok();
  }

  static void CopyLanes(WarpVal* d, const std::array<double, kMaxWarpWidth>& src,
                        int warp) {
    for (int l = 0; l < warp; ++l) {
      const std::size_t i = static_cast<std::size_t>(l);
      d->lanes[i] = src[i];
    }
  }

  static void FillLanes(WarpVal* d, double v, int warp) {
    for (int l = 0; l < warp; ++l) d->lanes[static_cast<std::size_t>(l)] = v;
  }

  BlockState st_;
  const ProgramSet& ps_;
  BindCtx bind_;
  hw::GridDim grid_;
  // Register/mask files live in thread-local scratch reused across blocks
  // (allocating and zero-filling hundreds of WarpVals per block would
  // dominate small launches). Reuse is safe: every compiled program writes
  // a register before its first read (reads before declaration are compile
  // bail-outs), so stale lanes from a previous block are never observable.
  std::vector<WarpVal>& regs_;
  std::vector<LaneMask>& masks_;
};

}  // namespace

Status RunBlockBytecode(const Launch& launch, const ProgramSet& programs,
                        const hw::DeviceSpec& device, int block_x_idx,
                        int block_y_idx, Metrics* metrics,
                        std::uint64_t* executed_insns) {
  HIPACC_CHECK(launch.kernel != nullptr && metrics != nullptr);
  return VmRunner(launch, programs, device, block_x_idx, block_y_idx, metrics)
      .Run(executed_insns);
}

}  // namespace hipacc::sim
