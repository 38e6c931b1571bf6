#include "runtime/host_exec.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsl/boundary.hpp"
#include "ast/type.hpp"
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
using sim::VmBuiltin;

/// Pixels interpreted per dispatch of one instruction. Wider chunks amortise
/// dispatch further but grow the per-thread register file (num_regs * width
/// doubles); 256 keeps a typical kernel's file inside L1/L2.
constexpr int kLaneWidth = 256;

/// Identical to the VM's ResolveCoord minus the violation counter (the host
/// path keeps no metrics); clamp behaviour for unguarded OOB is preserved so
/// values match the simulator bit for bit.
int ResolveCoordHost(int c, int n, BoundaryMode mode, bool check_lo,
                     bool check_hi) {
  if (c >= 0 && c < n) return c;
  const bool guarded = (c < 0 && check_lo) || (c >= n && check_hi);
  if (!guarded) return c < 0 ? 0 : n - 1;  // safety-net clamp
  return dsl::ResolveBoundaryIndex(c, n, mode);
}

struct MaskBind {
  const std::vector<float>* data = nullptr;
  int width = 1;
};

/// Constant-mask read at (x, y), 0 outside the mask like the VM.
float MaskValue(const MaskBind& mb, int x, int y) {
  const std::size_t addr = static_cast<std::size_t>(y) * mb.width + x;
  return addr < mb.data->size() ? (*mb.data)[addr] : 0.0f;
}

struct ParamFill {
  std::uint16_t reg = 0;
  ScalarType type = ScalarType::kFloat;
  double value = 0.0;
};

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
  std::vector<HostInsn> code;
  std::vector<ParamFill> seeds;  // floats pre-rounded like the VM's ParamFill
  int num_regs = 0;
  int num_masks = 1;
};

// Lane loops templated on the operator, mirroring vm.cpp: the per-lane
// switch inside the shared Eval*Lane helpers constant-folds away, and
// dispatch happens once per instruction per chunk.

template <BinaryOp op, bool float_math>
void BinaryLanes(const double* a, const double* b, double* d, int n) {
  for (int l = 0; l < n; ++l)
    d[l] = sim::EvalBinaryLane(op, float_math, a[l], b[l]);
}

template <AssignOp op, bool float_math, bool all>
void AssignLanes(const double* s, double* d, const std::uint8_t* mk,
                 ScalarType to, bool convert, int n) {
  constexpr ScalarType kFolded =
      float_math ? ScalarType::kFloat : ScalarType::kInt;
  for (int l = 0; l < n; ++l) {
    if (!all && !mk[l]) continue;
    const double rhs = convert ? sim::ConvertLaneValue(s[l], to) : s[l];
    d[l] = sim::CombineLane(kFolded, op, d[l], rhs);
  }
}

/// One lane of a fused tap: the VM's float kMul of the two loaded values,
/// then its float kAddAssign into the accumulator, rounded exactly as there.
/// Lowering never fuses a NaN coefficient, so operand order cannot pick a
/// different NaN payload.
inline double TapLane(double acc, float coeff, float px) {
  return sim::CombineLane(ScalarType::kFloat, AssignOp::kAddAssign, acc,
                          static_cast<double>(coeff * px));
}

/// Calls `body(std::true_type{})` for mask slot 0 and
/// `body(std::false_type{})` otherwise. Slot 0 is the chunk's active mask:
/// every lane of the chunk, since Validate rejects programs that write it.
/// Lane loops under it therefore skip the per-lane predicate, and the
/// mask-free instantiation vectorises.
template <class Body>
void ForMask(std::uint16_t mask, Body&& body) {
  if (mask == 0)
    body(std::true_type{});
  else
    body(std::false_type{});
}

bool AnyActive(const std::uint8_t* mk, int n) {
  for (int l = 0; l < n; ++l)
    if (mk[l]) return true;
  return false;
}

/// Per-thread register / mask file reused across chunks (and across stages
/// on the same worker). Reuse is safe for the same reason as the VM's
/// scratch: compiled programs never read a register before writing it.
struct HostScratch {
  std::vector<double> regs;         // num_regs * kLaneWidth
  std::vector<ScalarType> types;    // per register
  std::vector<std::uint8_t> masks;  // num_masks * kLaneWidth
};

HostScratch& ThreadScratch() {
  static thread_local HostScratch scratch;
  return scratch;
}

/// Everything resolved once per launch and shared read-only by the row
/// workers: buffer/mask bindings in program index order and the lowered
/// programs.
struct ExecPlan {
  const ProgramSet* ps = nullptr;
  std::vector<const sim::BufferBinding*> buffers;
  std::vector<MaskBind> masks;
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

/// Offset of the first of n contiguous in-range pixels that a gid+offset
/// access on mask slot 0 touches in `buf` from chunk (x0, y), or -1 when
/// the access has another shape or some lane falls outside the buffer.
std::ptrdiff_t RowOffset(const sim::BufferBinding& buf, const Insn& I, int x0,
                         int y, int n) {
  if (I.mask != 0 || I.cx.kind != CoordKind::kGidX ||
      I.cy.kind != CoordKind::kGidY)
    return -1;
  const int ry = y + I.cy.off;
  const int rx = x0 + I.cx.off;
  if (ry < 0 || ry >= buf.height || rx < 0 || rx > buf.width - n) return -1;
  return static_cast<std::ptrdiff_t>(ry) * buf.stride + rx;
}

/// Interprets one lowered program over lanes (x0 .. x0+n-1, y). Full chunks
/// run the kFixed = kLaneWidth instantiation, whose lane loops have a
/// compile-time trip count; partial chunks pass kFixed = 0 and their n.
/// Infallible: every failure mode is rejected up front by Validate / the
/// binding pre-flight.
template <int kFixed>
void ExecChunk(const ExecPlan& plan, const HostProgram& prog, int x0, int y,
               int n_lanes) {
  const int n = kFixed > 0 ? kFixed : n_lanes;
  HostScratch& sc = ThreadScratch();
  const std::size_t reg_slots =
      static_cast<std::size_t>(prog.num_regs) * kLaneWidth;
  if (sc.regs.size() < reg_slots) sc.regs.resize(reg_slots);
  if (sc.types.size() < static_cast<std::size_t>(prog.num_regs))
    sc.types.resize(static_cast<std::size_t>(prog.num_regs));
  const std::size_t mask_slots =
      static_cast<std::size_t>(prog.num_masks) * kLaneWidth;
  if (sc.masks.size() < mask_slots) sc.masks.resize(mask_slots);

  double* regs = sc.regs.data();
  ScalarType* types = sc.types.data();
  std::uint8_t* masks = sc.masks.data();
  auto reg = [&](std::uint16_t r) { return regs + std::size_t{r} * kLaneWidth; };
  auto msk = [&](std::uint16_t m) { return masks + std::size_t{m} * kLaneWidth; };

  // Slot 0 is never read: every mask consumer goes through ForMask.
  for (const ParamFill& seed : prog.seeds) {
    double* r = reg(seed.reg);
    types[seed.reg] = seed.type;
    for (int l = 0; l < n; ++l) r[l] = seed.value;
  }

  // Coordinate materialisation, dispatching on the kind once per operand.
  // Masked-off lanes get 0 for register coordinates, like the VM: their
  // values are never used, but stale lanes must not be cast to int.
  int cxs[kLaneWidth];
  int cys[kLaneWidth];
  auto coord_lanes = [&](const Coord& c, const std::uint8_t* mk, auto all,
                         int* out) {
    constexpr bool kAll = decltype(all)::value;
    switch (c.kind) {
      case CoordKind::kReg: {
        const double* r = reg(c.reg);
        for (int l = 0; l < n; ++l)
          out[l] = kAll || mk[l] ? static_cast<int>(r[l]) : 0;
        break;
      }
      case CoordKind::kGidX:
        for (int l = 0; l < n; ++l) out[l] = x0 + l + c.off;
        break;
      case CoordKind::kGidY:
        for (int l = 0; l < n; ++l) out[l] = y + c.off;
        break;
      case CoordKind::kImm:
        for (int l = 0; l < n; ++l) out[l] = c.off;
        break;
      case CoordKind::kTidX:
      case CoordKind::kTidY:
        break;  // rejected by Validate
    }
  };

  // Image read with boundary handling, lane by lane; masked-off lanes read 0.
  auto load_image = [&](const Insn& I, double* d, auto all) {
    constexpr bool kAll = decltype(all)::value;
    const sim::BufferBinding* buf =
        plan.buffers[static_cast<std::size_t>(I.buffer)];
    const int bw = buf->width;
    const int bh = buf->height;
    const int stride = buf->stride;
    const float* data = buf->data;
    const std::uint8_t* mk = msk(I.mask);
    coord_lanes(I.cx, mk, all, cxs);
    coord_lanes(I.cy, mk, all, cys);
    for (int l = 0; l < n; ++l) {
      if (!kAll && !mk[l]) {
        d[l] = 0.0;
        continue;
      }
      const int cx = cxs[l];
      const int cy = cys[l];
      if (static_cast<unsigned>(cx) < static_cast<unsigned>(bw) &&
          static_cast<unsigned>(cy) < static_cast<unsigned>(bh)) {
        d[l] = static_cast<double>(
            data[static_cast<std::size_t>(cy) * stride + cx]);
        continue;
      }
      if (I.boundary == BoundaryMode::kConstant) {
        const bool oob_x =
            (cx < 0 && I.checks.lo_x) || (cx >= bw && I.checks.hi_x);
        const bool oob_y =
            (cy < 0 && I.checks.lo_y) || (cy >= bh && I.checks.hi_y);
        if (oob_x || oob_y) {
          d[l] = static_cast<double>(I.cvalue);
          continue;
        }
      }
      const int rx = ResolveCoordHost(cx, bw, I.boundary, I.checks.lo_x,
                                      I.checks.hi_x);
      const int ry = ResolveCoordHost(cy, bh, I.boundary, I.checks.lo_y,
                                      I.checks.hi_y);
      if (rx < 0 || ry < 0) {
        d[l] = static_cast<double>(I.cvalue);
        continue;
      }
      d[l] = static_cast<double>(
          data[static_cast<std::size_t>(ry) * stride + rx]);
    }
  };

  const HostInsn* code = prog.code.data();
  const std::int32_t end = static_cast<std::int32_t>(prog.code.size());
  std::int32_t pc = 0;
  while (pc < end) {
    const HostInsn& H = code[pc];
    const Insn& I = *H.insn;
    if (H.tap) {
      // The image load is on mask slot 0, so every lane accumulates.
      double* acc = reg(H.acc);
      const float coeff = H.coeff;
      const sim::BufferBinding& buf =
          *plan.buffers[static_cast<std::size_t>(I.buffer)];
      const std::ptrdiff_t off = RowOffset(buf, I, x0, y, n);
      if (off >= 0) {
        const float* src = buf.data + off;
        for (int l = 0; l < n; ++l) acc[l] = TapLane(acc[l], coeff, src[l]);
      } else {
        double* px = reg(I.dst);  // dead after the tap: free scratch
        load_image(I, px, std::true_type{});
        for (int l = 0; l < n; ++l)
          acc[l] = TapLane(acc[l], coeff, static_cast<float>(px[l]));
      }
      ++pc;
      continue;
    }
    switch (I.op) {
      case Op::kConst: {
        double* d = reg(I.dst);
        types[I.dst] = I.type;
        for (int l = 0; l < n; ++l) d[l] = I.imm;
        break;
      }
      case Op::kCopy: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        types[I.dst] = types[I.a];
        if (d != s)
          for (int l = 0; l < n; ++l) d[l] = s[l];
        break;
      }
      case Op::kConvert: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        if (types[I.a] == I.type) {
          if (d != s)
            for (int l = 0; l < n; ++l) d[l] = s[l];
        } else {
          for (int l = 0; l < n; ++l)
            d[l] = sim::ConvertLaneValue(s[l], I.type);
        }
        types[I.dst] = I.type;
        break;
      }
      case Op::kUnary: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        const UnaryOp op = static_cast<UnaryOp>(I.sub);
        for (int l = 0; l < n; ++l)
          d[l] = sim::EvalUnaryLane(op, I.type, s[l]);
        types[I.dst] = I.type;
        break;
      }
      case Op::kBinary: {
        const double* a = reg(I.a);
        const double* b = reg(I.b);
        double* d = reg(I.dst);
        const BinaryOp op = static_cast<BinaryOp>(I.sub);
        const bool fm = Promote(types[I.a], types[I.b]) == ScalarType::kFloat;
        switch (op) {
#define HIPACC_HOST_BINARY(name)                         \
  case BinaryOp::name:                                   \
    if (fm)                                              \
      BinaryLanes<BinaryOp::name, true>(a, b, d, n);     \
    else                                                 \
      BinaryLanes<BinaryOp::name, false>(a, b, d, n);    \
    break;
          HIPACC_HOST_BINARY(kAdd)
          HIPACC_HOST_BINARY(kSub)
          HIPACC_HOST_BINARY(kMul)
          HIPACC_HOST_BINARY(kDiv)
          HIPACC_HOST_BINARY(kMod)
          HIPACC_HOST_BINARY(kLt)
          HIPACC_HOST_BINARY(kLe)
          HIPACC_HOST_BINARY(kGt)
          HIPACC_HOST_BINARY(kGe)
          HIPACC_HOST_BINARY(kEq)
          HIPACC_HOST_BINARY(kNe)
          HIPACC_HOST_BINARY(kAnd)
          HIPACC_HOST_BINARY(kOr)
#undef HIPACC_HOST_BINARY
        }
        types[I.dst] = I.type;
        break;
      }
      case Op::kSelect: {
        const double* c = reg(I.a);
        const double* t = reg(I.b);
        const double* f = reg(I.c);
        double* d = reg(I.dst);
        for (int l = 0; l < n; ++l) {
          const double cv = c[l];
          const double tv = t[l];
          const double fv = f[l];
          d[l] = cv != 0.0 ? tv : fv;
        }
        types[I.dst] = I.type;
        break;
      }
      case Op::kCall: {
        const double* a = reg(I.a);
        const double* b = reg(I.b);
        double* d = reg(I.dst);
        const VmBuiltin fn = static_cast<VmBuiltin>(I.sub);
        for (int l = 0; l < n; ++l) d[l] = sim::EvalBuiltinLane(fn, a[l], b[l]);
        types[I.dst] = I.type;
        break;
      }
      case Op::kThreadIdx: {
        double* d = reg(I.dst);
        // Validate admits only the global-id kinds.
        if (static_cast<ThreadIndexKind>(I.sub) == ThreadIndexKind::kGlobalIdX)
          for (int l = 0; l < n; ++l) d[l] = static_cast<double>(x0 + l);
        else
          for (int l = 0; l < n; ++l) d[l] = static_cast<double>(y);
        types[I.dst] = ScalarType::kInt;
        break;
      }
      case Op::kAssign: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        const std::uint8_t* mk = msk(I.mask);
        const bool convert = types[I.a] != I.type;
        const bool fm = I.type == ScalarType::kFloat;
        ForMask(I.mask, [&](auto all) {
          constexpr bool kAll = decltype(all)::value;
          switch (static_cast<AssignOp>(I.sub)) {
#define HIPACC_HOST_ASSIGN(name)                                            \
  case AssignOp::name:                                                      \
    if (fm)                                                                 \
      AssignLanes<AssignOp::name, true, kAll>(s, d, mk, I.type, convert,    \
                                              n);                           \
    else                                                                    \
      AssignLanes<AssignOp::name, false, kAll>(s, d, mk, I.type, convert,   \
                                               n);                          \
    break;
            HIPACC_HOST_ASSIGN(kAssign)
            HIPACC_HOST_ASSIGN(kAddAssign)
            HIPACC_HOST_ASSIGN(kSubAssign)
            HIPACC_HOST_ASSIGN(kMulAssign)
            HIPACC_HOST_ASSIGN(kDivAssign)
#undef HIPACC_HOST_ASSIGN
          }
        });
        break;
      }
      case Op::kLoadImage: {
        const sim::BufferBinding& buf =
            *plan.buffers[static_cast<std::size_t>(I.buffer)];
        double* d = reg(I.dst);
        // The ubiquitous gid+offset addressing with every lane in range is
        // one contiguous widening copy.
        const std::ptrdiff_t off = RowOffset(buf, I, x0, y, n);
        if (off >= 0) {
          const float* src = buf.data + off;
          for (int l = 0; l < n; ++l) d[l] = static_cast<double>(src[l]);
        } else {
          ForMask(I.mask, [&](auto all) { load_image(I, d, all); });
        }
        types[I.dst] = ScalarType::kFloat;
        break;
      }
      case Op::kLoadConst: {
        const MaskBind& mb = plan.masks[static_cast<std::size_t>(I.buffer)];
        double* d = reg(I.dst);
        const std::uint8_t* mk = msk(I.mask);
        ForMask(I.mask, [&](auto all) {
          constexpr bool kAll = decltype(all)::value;
          // Mask coefficients are almost always read at literal window
          // offsets: a single broadcast per instruction.
          if (I.cx.kind == CoordKind::kImm && I.cy.kind == CoordKind::kImm) {
            const double v = MaskValue(mb, I.cx.off, I.cy.off);
            for (int l = 0; l < n; ++l) d[l] = kAll || mk[l] ? v : 0.0;
            return;
          }
          coord_lanes(I.cx, mk, all, cxs);
          coord_lanes(I.cy, mk, all, cys);
          for (int l = 0; l < n; ++l)
            d[l] = kAll || mk[l] ? MaskValue(mb, cxs[l], cys[l]) : 0.0;
        });
        types[I.dst] = ScalarType::kFloat;
        break;
      }
      case Op::kStore: {
        const sim::BufferBinding& buf =
            *plan.buffers[static_cast<std::size_t>(I.buffer)];
        const double* v = reg(I.a);
        const std::ptrdiff_t off = RowOffset(buf, I, x0, y, n);
        if (off >= 0) {
          float* dst = buf.data + off;
          for (int l = 0; l < n; ++l) dst[l] = static_cast<float>(v[l]);
          break;
        }
        const std::uint8_t* mk = msk(I.mask);
        ForMask(I.mask, [&](auto all) {
          constexpr bool kAll = decltype(all)::value;
          coord_lanes(I.cx, mk, all, cxs);
          coord_lanes(I.cy, mk, all, cys);
          for (int l = 0; l < n; ++l) {
            if (!kAll && !mk[l]) continue;
            const int px = cxs[l];
            const int py = cys[l];
            if (px < 0 || px >= buf.width || py < 0 || py >= buf.height)
              continue;
            buf.data[static_cast<std::size_t>(py) * buf.stride + px] =
                static_cast<float>(v[l]);
          }
        });
        break;
      }
      case Op::kBarrier:
      case Op::kAccount:
        break;  // dropped by Lower
      case Op::kLoadShared:
        break;  // rejected by Validate
      case Op::kMaskIf: {
        const double* cond = reg(I.a);
        const std::uint8_t* in = msk(I.mask);
        std::uint8_t* tm = msk(I.dst);
        std::uint8_t* em = msk(I.b);
        ForMask(I.mask, [&](auto all) {
          constexpr bool kAll = decltype(all)::value;
          for (int l = 0; l < n; ++l) {
            const bool active = kAll || in[l] != 0;
            const bool taken = active && cond[l] != 0.0;
            tm[l] = taken;
            em[l] = active && !taken;
          }
        });
        break;
      }
      case Op::kJumpIfNone:
        // Slot 0 always has a lane: chunks are never empty.
        if (I.mask != 0 && !AnyActive(msk(I.mask), n)) {
          pc = H.jump;
          continue;
        }
        break;
      case Op::kLoopInit: {
        const double* s = reg(I.a);
        double* d = reg(I.dst);
        if (d != s)
          for (int l = 0; l < n; ++l) d[l] = s[l];
        types[I.dst] = ScalarType::kInt;
        break;
      }
      case Op::kLoopHead: {
        const double* var = reg(I.a);
        const double* hi = reg(I.b);
        const std::uint8_t* in = msk(I.mask);
        std::uint8_t* im = msk(I.dst);
        bool any = false;
        ForMask(I.mask, [&](auto all) {
          constexpr bool kAll = decltype(all)::value;
          for (int l = 0; l < n; ++l) {
            const bool live = (kAll || in[l]) && var[l] <= hi[l];
            im[l] = live;
            any = any || live;
          }
        });
        if (!any) {
          pc = H.jump;
          continue;
        }
        break;
      }
      case Op::kLoopInc: {
        double* d = reg(I.dst);
        const std::uint8_t* mk = msk(I.mask);
        ForMask(I.mask, [&](auto all) {
          constexpr bool kAll = decltype(all)::value;
          for (int l = 0; l < n; ++l)
            if (kAll || mk[l]) d[l] += I.imm;
        });
        pc = H.jump;
        continue;
      }
    }
    ++pc;
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
              const std::vector<MaskBind>& masks, HostInsn* tap) {
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
  const float coeff =
      MaskValue(masks[static_cast<std::size_t>(ld_mask->buffer)],
                ld_mask->cx.off, ld_mask->cy.off);
  if (std::isnan(coeff)) return false;
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
/// BindLaunch, so mask coefficients are known.
HostProgram Lower(const Program& prog, const std::vector<MaskBind>& masks) {
  const std::vector<Insn>& code = prog.code;
  bool straight = true;
  for (const Insn& I : code)
    if (I.op == Op::kMaskIf || I.op == Op::kJumpIfNone ||
        I.op == Op::kLoopHead || I.op == Op::kLoopInc)
      straight = false;
  HostProgram out;
  out.num_regs = prog.num_regs;
  out.num_masks = prog.num_masks;
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

Status BindLaunch(const sim::Launch& launch, const ProgramSet& ps,
                  ExecPlan* plan) {
  plan->buffers.reserve(ps.buffer_names.size());
  for (const auto& name : ps.buffer_names)
    plan->buffers.push_back(launch.FindBuffer(name));
  plan->masks.reserve(ps.const_masks.size());
  for (const auto& ref : ps.const_masks) {
    MaskBind mb;
    const auto it = launch.const_masks.find(ref.name);
    if (it != launch.const_masks.end()) mb.data = &it->second;
    mb.width = ref.width;
    plan->masks.push_back(mb);
  }
  for (const Program& prog : ps.programs) {
    // The VM binds lazily and errors when an instruction touches a missing
    // buffer; the host path front-loads the same checks so the row workers
    // are infallible.
    for (const Insn& I : prog.code) {
      if (I.op == Op::kLoadImage || I.op == Op::kStore) {
        const sim::BufferBinding* buf =
            plan->buffers[static_cast<std::size_t>(I.buffer)];
        if (buf == nullptr)
          return Status::Invalid(
              "unbound buffer " +
              ps.buffer_names[static_cast<std::size_t>(I.buffer)]);
        if (I.op == Op::kStore && !buf->writable)
          return Status::Invalid(
              "write to read-only buffer " +
              ps.buffer_names[static_cast<std::size_t>(I.buffer)]);
      } else if (I.op == Op::kLoadConst) {
        if (plan->masks[static_cast<std::size_t>(I.buffer)].data == nullptr)
          return Status::Invalid(
              "unbound constant mask " +
              ps.const_masks[static_cast<std::size_t>(I.buffer)].name);
      }
    }
    HostProgram lowered = Lower(prog, plan->masks);
    lowered.seeds.reserve(prog.params.size());
    for (const auto& param : prog.params) {
      const auto it = launch.scalar_args.find(param.name);
      const double v = it != launch.scalar_args.end() ? it->second : 0.0;
      lowered.seeds.push_back(ParamFill{
          param.reg, param.type,
          param.type == ScalarType::kFloat
              ? static_cast<double>(static_cast<float>(v))
              : v});
    }
    plan->programs.push_back(std::move(lowered));
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
  HIPACC_RETURN_IF_ERROR(BindLaunch(launch, ps, &plan));
  ParallelFor(
      0, launch.height, [&plan](int y) { ExecRow(plan, y); },
      options.threads > 0 ? static_cast<unsigned>(options.threads) : 0);
  return Status::Ok();
}

}  // namespace hipacc::runtime
