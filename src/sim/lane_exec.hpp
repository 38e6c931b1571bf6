// The lane semantics of the bytecode (bytecode.hpp), shared by every engine
// that interprets it: the simulator's VM (vm.cpp) runs one warp at a time,
// the host executor (runtime/host_exec.cpp) one chunk of an image row. One
// switch over Op gives every value, mask, loop and memory instruction its
// meaning; an engine keeps only a short dispatch loop of its own around it.
//
// The core works on one flat register layout — `double[num_regs x stride]`,
// `ScalarType[num_regs]` and `uint8_t[num_masks x stride]`, the layout the
// native ABI also uses — and is parameterised by two things:
//  * a lane source, naming the pixel each lane computes: a warp's gid/tid
//    arrays from BlockState (WarpLanes), or a contiguous row chunk x0 + l, y
//    (RowLanes). Only a row chunk offers the contiguous load/store fast path.
//  * a Model: SimModel hands addresses, out-of-bounds counts and ALU/SFU
//    costs to the MemoryModel / Metrics of the block; NullModel does
//    nothing, and its hooks inline away.
// The core never asks which engine calls it; anything that needs more than
// these hooks (costs per instruction, scratchpad reads, binding errors, the
// host's fused taps) stays in the engine's loop.
//
// Lane arithmetic is the Eval*Lane / CombineLane helpers of bytecode.hpp.
// Every translation unit that instantiates the core must be compiled with
// -ffp-contract=off: a contracted multiply-add would round differently
// from the AST interpreter.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsl/boundary.hpp"
#include "hwmodel/config.hpp"
#include "sim/block_state.hpp"
#include "sim/bytecode.hpp"
#include "support/status.hpp"

namespace hipacc::sim {

/// The memory instruction a Model's Commit reports.
enum class MemKind : std::uint8_t {
  kGlobalRead,
  kGlobalWrite,
  kTexture,
  kConstant,
  kShared,
};

/// Value-only model: no memory model, no metrics.
struct NullModel {
  static void Alu(std::uint64_t) {}
  static void Oob() {}
  static void Touch(std::uint64_t) {}
  static void Commit(MemKind) {}
};

/// The simulator's model for one block: each memory instruction's active
/// lane addresses go to the block's MemoryModel in lane order, and cost
/// and out-of-bounds counts accumulate in locals that the destructor
/// flushes into the Metrics on every exit path.
class SimModel {
 public:
  explicit SimModel(BlockState& st) : st_(st) {}
  SimModel(const SimModel&) = delete;
  SimModel& operator=(const SimModel&) = delete;
  ~SimModel() {
    st_.metrics->alu_ops += alu_;
    st_.metrics->sfu_calls += sfu_;
    st_.metrics->oob_violations += oob_;
  }

  void Alu(std::uint64_t n) { alu_ += n; }
  void Sfu(std::uint64_t n) { sfu_ += n; }
  void Oob() { ++oob_; }
  void Touch(std::uint64_t addr) { st_.addr_scratch.push_back(addr); }
  void Commit(MemKind kind) {
    switch (kind) {
      case MemKind::kGlobalRead:
        st_.memory.GlobalAccess(st_.addr_scratch, false, st_.metrics);
        break;
      case MemKind::kGlobalWrite:
        st_.memory.GlobalAccess(st_.addr_scratch, true, st_.metrics);
        break;
      case MemKind::kTexture:
        st_.memory.TextureAccess(st_.addr_scratch, st_.metrics);
        break;
      case MemKind::kConstant:
        st_.memory.ConstantAccess(st_.addr_scratch, st_.metrics);
        break;
      case MemKind::kShared:
        st_.memory.SharedAccess(st_.addr_scratch, st_.metrics);
        break;
    }
    st_.addr_scratch.clear();
  }

 private:
  BlockState& st_;
  std::uint64_t alu_ = 0, sfu_ = 0, oob_ = 0;
};

/// The lanes of one simulated warp (BlockState::BuildWarpContext).
struct WarpLanes {
  const BlockState& st;
  hw::GridDim grid;

  int X(int l) const { return st.gid_xi[static_cast<std::size_t>(l)]; }
  int Y(int l) const { return st.gid_yi[static_cast<std::size_t>(l)]; }
  int TidX(int l) const { return st.tid_xi[static_cast<std::size_t>(l)]; }
  int TidY(int l) const { return st.tid_yi[static_cast<std::size_t>(l)]; }
  void Index(ast::ThreadIndexKind kind, double* d, int n) const {
    using K = ast::ThreadIndexKind;
    const double* src = kind == K::kThreadIdxX   ? st.tid_x.data()
                        : kind == K::kThreadIdxY ? st.tid_y.data()
                        : kind == K::kGlobalIdX  ? st.gid_x.data()
                        : kind == K::kGlobalIdY  ? st.gid_y.data()
                                                 : nullptr;
    if (src != nullptr) {
      std::copy_n(src, n, d);
      return;
    }
    double v = 0.0;
    switch (kind) {
      case K::kBlockIdxX: v = st.bix; break;
      case K::kBlockIdxY: v = st.biy; break;
      case K::kBlockDimX: v = st.launch.config.block_x; break;
      case K::kBlockDimY: v = st.launch.config.block_y; break;
      case K::kGridDimX: v = grid.blocks_x; break;
      case K::kGridDimY: v = grid.blocks_y; break;
      case K::kImageW: v = st.launch.width; break;
      case K::kImageH: v = st.launch.height; break;
      default: break;
    }
    std::fill_n(d, n, v);
  }
  /// Warp lanes are not contiguous pixels: no row fast path.
  static std::ptrdiff_t Row(const BufferBinding&, const Insn&, int) {
    return -1;
  }
};

/// The lanes of one row chunk: pixels (x0 + l, y) with every lane active.
/// Thread-shaped indices have no meaning here; engines running row chunks
/// reject programs that use them.
struct RowLanes {
  int x0 = 0;
  int y = 0;

  int X(int l) const { return x0 + l; }
  int Y(int) const { return y; }
  static int TidX(int) { return 0; }
  static int TidY(int) { return 0; }
  void Index(ast::ThreadIndexKind kind, double* d, int n) const {
    if (kind == ast::ThreadIndexKind::kGlobalIdX)
      for (int l = 0; l < n; ++l) d[l] = static_cast<double>(x0 + l);
    else
      std::fill_n(d, n, static_cast<double>(y));
  }
  /// Offset in `buf` of the first of n contiguous in-range pixels a
  /// gid+offset access touches from this chunk, or -1 when the access has
  /// another shape or some lane falls outside the buffer.
  std::ptrdiff_t Row(const BufferBinding& buf, const Insn& I, int n) const {
    if (I.cx.kind != CoordKind::kGidX || I.cy.kind != CoordKind::kGidY)
      return -1;
    const int ry = y + I.cy.off;
    const int rx = x0 + I.cx.off;
    if (ry < 0 || ry >= buf.height || rx < 0 || rx > buf.width - n) return -1;
    return static_cast<std::ptrdiff_t>(ry) * buf.stride + rx;
  }
};

/// Per-thread register, type and mask file in the flat layout, reused
/// across warps, blocks and chunks. Reuse is safe: every compiled program
/// writes a register before its first read (reads before declaration are
/// compile bail-outs), so stale lanes are never observable.
struct LaneFile {
  std::vector<double> regs;
  std::vector<ast::ScalarType> types;
  std::vector<std::uint8_t> masks;
  std::size_t stride = 0;

  void Fit(const Program& prog, std::size_t lanes) {
    stride = lanes;
    const auto grow = [](auto& v, std::size_t n) {
      if (v.size() < n) v.resize(n);
    };
    grow(regs, static_cast<std::size_t>(prog.num_regs) * lanes);
    grow(types, static_cast<std::size_t>(prog.num_regs));
    grow(masks, static_cast<std::size_t>(prog.num_masks) * lanes);
  }

  /// The calling thread's file, shared by every engine that runs there.
  static LaneFile& ThisThread() {
    static thread_local LaneFile file;
    return file;
  }
};

/// Resolves one out-of-range coordinate under a read's guard set (the
/// interpreter's ResolveCoord). Returns -1 when the constant value must be
/// substituted; sets *violation for an unguarded access.
inline int ResolveCoord(int c, int n, ast::BoundaryMode mode, bool check_lo,
                        bool check_hi, bool hardware_resolved,
                        bool* violation) {
  if (c >= 0 && c < n) return c;
  if (hardware_resolved)  // the texture unit applies the address mode silently
    return dsl::ResolveBoundaryIndex(
        c, n,
        mode == ast::BoundaryMode::kUndefined ? ast::BoundaryMode::kClamp
                                              : mode);
  const bool guarded = (c < 0 && check_lo) || (c >= n && check_hi);
  if (!guarded) {
    *violation = true;
    return c < 0 ? 0 : n - 1;  // clamp as a safety net after recording
  }
  return dsl::ResolveBoundaryIndex(c, n, mode);
}

/// Calls f(std::integral_constant<E, e>{}) for the run-time enumerator e
/// of an enum whose values run from 0 to kLast, so that a lane loop
/// templated on the operator is chosen once per instruction and the
/// per-lane switch of the Eval*Lane helpers constant-folds away. An
/// enumerator past kLast (one added to the enum but not here) aborts
/// instead of leaving the destination lanes stale.
template <auto kLast, class F>
void WithEnum(decltype(kLast) e, F&& f) {
  using E = decltype(kLast);
  const bool matched = [&]<std::size_t... I>(std::index_sequence<I...>) {
    return ((static_cast<std::size_t>(e) == I &&
             (f(std::integral_constant<E, static_cast<E>(I)>{}), true)) ||
            ...);
  }(std::make_index_sequence<static_cast<std::size_t>(kLast) + 1>{});
  HIPACC_CHECK_MSG(matched, "enumerator past the lane core's last case");
}

/// Runs instructions of one program over n lanes. `kFixed` > 0 makes the
/// lane count a compile-time constant (the loops then have a fixed trip
/// count); 0 takes it at run time.
template <int kFixed, class Lanes, class Model>
class LaneCore {
 public:
  LaneCore(LaneFile& file, const LaunchBindings& bind, const Lanes& lanes,
           Model& model, int n)
      : regs_(file.regs.data()),
        types_(file.types.data()),
        masks_(file.masks.data()),
        stride_(file.stride),
        bind_(bind),
        lanes_(lanes),
        model_(model),
        n_(n) {
    static_assert(kFixed <= kLanes);
  }

  double* Reg(std::uint16_t r) const { return regs_ + r * stride_; }
  std::uint8_t* Mask(std::uint16_t m) const { return masks_ + m * stride_; }
  void SetType(std::uint16_t r, ast::ScalarType type) const {
    types_[r] = type;
  }

  /// Seeds the program's scalar parameters (`seeds` in Program::params order).
  void Seed(const Program& prog, const std::vector<double>& seeds) const {
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      const std::uint16_t r = prog.params[k].reg;
      types_[r] = prog.params[k].type;
      std::fill_n(Reg(r), N(), seeds[k]);
    }
  }

  /// Executes `I` and returns whether it branches to its jump target.
  /// `kAll` states that mask slot `I.mask` holds every lane, so predicated
  /// loops run without a per-lane test. Infallible: engines check bindings
  /// before a memory instruction gets here. kLoadShared, which needs the
  /// block's scratchpad, belongs to the engine.
  template <bool kAll>
  bool Exec(const Insn& I) const {
    using namespace ast;
    const int n = N();
    switch (I.op) {
      case Op::kConst: {
        types_[I.dst] = I.type;
        std::fill_n(Reg(I.dst), n, I.imm);
        return false;
      }
      case Op::kCopy: {
        types_[I.dst] = types_[I.a];
        Move(Reg(I.a), Reg(I.dst));
        return false;
      }
      case Op::kConvert: {
        const double* s = Reg(I.a);
        double* d = Reg(I.dst);
        if (types_[I.a] == I.type)
          Move(s, d);
        else
          for (int l = 0; l < n; ++l) d[l] = ConvertLaneValue(s[l], I.type);
        types_[I.dst] = I.type;
        return false;
      }
      case Op::kUnary: {
        const double* s = Reg(I.a);
        double* d = Reg(I.dst);
        const UnaryOp op = static_cast<UnaryOp>(I.sub);
        for (int l = 0; l < n; ++l) d[l] = EvalUnaryLane(op, I.type, s[l]);
        types_[I.dst] = I.type;
        return false;
      }
      case Op::kBinary: {
        const bool fm = Promote(types_[I.a], types_[I.b]) == ScalarType::kFloat;
        const BinaryOp op = static_cast<BinaryOp>(I.sub);
        if (op == BinaryOp::kDiv) model_.Alu(fm ? 5 : 16);
        WithEnum<BinaryOp::kOr>(op, [&](auto k) {
          if (fm)
            Binary<decltype(k)::value, true>(I);
          else
            Binary<decltype(k)::value, false>(I);
        });
        types_[I.dst] = I.type;
        return false;
      }
      case Op::kSelect: {
        const double* c = Reg(I.a);
        const double* t = Reg(I.b);
        const double* f = Reg(I.c);
        double* d = Reg(I.dst);
        for (int l = 0; l < n; ++l) {
          const double cv = c[l];
          const double tv = t[l];
          const double fv = f[l];
          d[l] = cv != 0.0 ? tv : fv;
        }
        types_[I.dst] = I.type;
        return false;
      }
      case Op::kCall: {
        const VmBuiltin fn = static_cast<VmBuiltin>(I.sub);
        WithEnum<VmBuiltin::kAbs>(
            fn, [&](auto k) { Builtin<decltype(k)::value>(I); });
        types_[I.dst] = I.type;
        return false;
      }
      case Op::kThreadIdx: {
        lanes_.Index(static_cast<ThreadIndexKind>(I.sub), Reg(I.dst), n);
        types_[I.dst] = ScalarType::kInt;
        return false;
      }
      case Op::kAssign: {
        const bool fm = I.type == ScalarType::kFloat;
        const AssignOp op = static_cast<AssignOp>(I.sub);
        WithEnum<AssignOp::kDivAssign>(op, [&](auto k) {
          if (fm)
            Assign<decltype(k)::value, true, kAll>(I);
          else
            Assign<decltype(k)::value, false, kAll>(I);
        });
        return false;
      }
      case Op::kLoadImage:
        LoadImage<kAll>(I, Reg(I.dst));
        return false;
      case Op::kLoadConst:
        LoadConst<kAll>(I);
        return false;
      case Op::kStore:
        Store<kAll>(I);
        return false;
      case Op::kLoadShared:  // the engine's: it owns the scratchpad
      case Op::kBarrier:     // cost-only
      case Op::kAccount:
        return false;
      case Op::kMaskIf: {
        const double* cond = Reg(I.a);
        const std::uint8_t* in = Mask(I.mask);
        std::uint8_t* tm = Mask(I.dst);
        std::uint8_t* em = Mask(I.b);
        for (int l = 0; l < n; ++l) {
          const bool active = kAll || in[l] != 0;
          const bool taken = active && cond[l] != 0.0;
          tm[l] = taken;
          em[l] = active && !taken;
        }
        return false;
      }
      case Op::kJumpIfNone: {
        if (kAll) return false;
        const std::uint8_t* mk = Mask(I.mask);
        for (int l = 0; l < n; ++l)
          if (mk[l]) return false;
        return true;
      }
      case Op::kLoopInit: {
        // The interpreter seeds the loop variable with lo's raw lanes (no
        // int conversion) under an int type tag.
        Move(Reg(I.a), Reg(I.dst));
        types_[I.dst] = ScalarType::kInt;
        return false;
      }
      case Op::kLoopHead: {
        const double* var = Reg(I.a);
        const double* hi = Reg(I.b);
        const std::uint8_t* in = Mask(I.mask);
        std::uint8_t* im = Mask(I.dst);
        bool any = false;
        for (int l = 0; l < n; ++l) {
          const bool live = (kAll || in[l]) && var[l] <= hi[l];
          im[l] = live;
          any = any || live;
        }
        return !any;
      }
      case Op::kLoopInc: {
        double* d = Reg(I.dst);
        const std::uint8_t* mk = Mask(I.mask);
        for (int l = 0; l < n; ++l)
          if (kAll || mk[l]) d[l] += I.imm;
        return true;
      }
    }
    return false;
  }

  /// Materialises one coordinate operand for every lane, dispatching on its
  /// kind once. Lanes outside `mk` get 0 for register coordinates: their
  /// values are never used, but stale lanes must not be cast to int.
  template <bool kAll>
  void Coords(const Coord& c, const std::uint8_t* mk, int* out) const {
    const int n = N();
    switch (c.kind) {
      case CoordKind::kReg: {
        const double* r = Reg(c.reg);
        for (int l = 0; l < n; ++l)
          out[l] = kAll || mk[l] ? static_cast<int>(r[l]) : 0;
        break;
      }
      case CoordKind::kGidX:
        for (int l = 0; l < n; ++l) out[l] = lanes_.X(l) + c.off;
        break;
      case CoordKind::kGidY:
        for (int l = 0; l < n; ++l) out[l] = lanes_.Y(l) + c.off;
        break;
      case CoordKind::kTidX:
        for (int l = 0; l < n; ++l) out[l] = lanes_.TidX(l) + c.off;
        break;
      case CoordKind::kTidY:
        for (int l = 0; l < n; ++l) out[l] = lanes_.TidY(l) + c.off;
        break;
      case CoordKind::kImm:
        std::fill_n(out, n, c.off);
        break;
    }
  }

  /// Image read with boundary handling into `d` (normally Reg(I.dst));
  /// masked-off lanes read 0.
  template <bool kAll>
  void LoadImage(const Insn& I, double* d) const {
    using ast::BoundaryMode;
    const int n = N();
    const BufferBinding& buf =
        *bind_.buffers[static_cast<std::size_t>(I.buffer)];
    const MemKind kind = I.sub == 1 ? MemKind::kTexture : MemKind::kGlobalRead;
    types_[I.dst] = ast::ScalarType::kFloat;
    // The ubiquitous gid+offset read with every lane in range is one
    // contiguous widening copy.
    const std::ptrdiff_t off = kAll ? lanes_.Row(buf, I, n) : -1;
    if (off >= 0) {
      const float* src = buf.data + off;
      for (int l = 0; l < n; ++l) {
        d[l] = static_cast<double>(src[l]);
        model_.Touch(static_cast<std::uint64_t>(off + l));
      }
      model_.Commit(kind);
      return;
    }
    const std::uint8_t* mk = Mask(I.mask);
    const bool hardware_resolved = I.hw_bh || I.sub == 1;
    int cxs[kLanes];
    int cys[kLanes];
    Coords<kAll>(I.cx, mk, cxs);
    Coords<kAll>(I.cy, mk, cys);
    const int bw = buf.width;
    const int bh = buf.height;
    const int stride = buf.stride;
    const float* data = buf.data;
    for (int l = 0; l < n; ++l) {
      if (!kAll && !mk[l]) {
        d[l] = 0.0;
        continue;
      }
      const int cx = cxs[l];
      const int cy = cys[l];
      // In-range fast path: boundary handling (of any mode) only matters
      // for out-of-range coordinates.
      if (static_cast<unsigned>(cx) < static_cast<unsigned>(bw) &&
          static_cast<unsigned>(cy) < static_cast<unsigned>(bh)) {
        const std::uint64_t addr = static_cast<std::uint64_t>(cy) * stride + cx;
        d[l] = static_cast<double>(data[addr]);
        model_.Touch(addr);
        continue;
      }
      // Constant mode with guards: out-of-bounds lanes are predicated off
      // and produce the constant without touching memory.
      if (I.boundary == BoundaryMode::kConstant && !I.hw_bh) {
        const bool oob_x =
            (cx < 0 && I.checks.lo_x) || (cx >= bw && I.checks.hi_x);
        const bool oob_y =
            (cy < 0 && I.checks.lo_y) || (cy >= bh && I.checks.hi_y);
        if (oob_x || oob_y) {
          d[l] = static_cast<double>(I.cvalue);
          continue;
        }
      }
      bool violation = false;
      const int rx = ResolveCoord(cx, bw, I.boundary, I.checks.lo_x,
                                  I.checks.hi_x, hardware_resolved, &violation);
      const int ry = ResolveCoord(cy, bh, I.boundary, I.checks.lo_y,
                                  I.checks.hi_y, hardware_resolved, &violation);
      if (violation) model_.Oob();
      if (rx < 0 || ry < 0) {
        d[l] = static_cast<double>(I.cvalue);
        continue;
      }
      const std::uint64_t addr = static_cast<std::uint64_t>(ry) * stride + rx;
      d[l] = static_cast<double>(data[addr]);
      model_.Touch(addr);
    }
    model_.Commit(kind);
  }

 private:
  /// Widest lane count of any engine: a host row chunk.
  static constexpr int kLanes = 256;

  // Lane loops templated on the operator so the per-lane switch inside the
  // Eval*Lane helpers constant-folds away: dispatch happens once per
  // instruction, not once per lane. Reading both operands before the write
  // keeps dst aliasing either source safe.

  template <ast::BinaryOp op, bool float_math>
  void Binary(const Insn& I) const {
    const double* a = Reg(I.a);
    const double* b = Reg(I.b);
    double* d = Reg(I.dst);
    for (int l = 0, n = N(); l < n; ++l)
      d[l] = EvalBinaryLane(op, float_math, a[l], b[l]);
  }

  template <VmBuiltin fn>
  void Builtin(const Insn& I) const {
    const double* a = Reg(I.a);
    const double* b = Reg(I.b);
    double* d = Reg(I.dst);
    for (int l = 0, n = N(); l < n; ++l) d[l] = EvalBuiltinLane(fn, a[l], b[l]);
  }

  template <ast::AssignOp op, bool float_math, bool kAll>
  void Assign(const Insn& I) const {
    constexpr ast::ScalarType kFolded =
        float_math ? ast::ScalarType::kFloat : ast::ScalarType::kInt;
    const double* s = Reg(I.a);
    double* d = Reg(I.dst);
    const std::uint8_t* mk = Mask(I.mask);
    const bool convert = types_[I.a] != I.type;
    for (int l = 0, n = N(); l < n; ++l) {
      if (!kAll && !mk[l]) continue;
      const double rhs = convert ? ConvertLaneValue(s[l], I.type) : s[l];
      d[l] = CombineLane(kFolded, op, d[l], rhs);
    }
  }

  /// Constant-mask read; 0 outside the table (an out-of-bounds access).
  template <bool kAll>
  void LoadConst(const Insn& I) const {
    const int n = N();
    const LaunchBindings::Mask& mt =
        bind_.masks[static_cast<std::size_t>(I.buffer)];
    const std::vector<float>& table = *mt.data;
    double* d = Reg(I.dst);
    const std::uint8_t* mk = Mask(I.mask);
    types_[I.dst] = ast::ScalarType::kFloat;
    auto addr_of = [&mt](int x, int y) {
      return static_cast<std::uint64_t>(y) * mt.width + x;
    };
    // Mask coefficients are almost always read at literal window offsets:
    // one address for every lane.
    if (I.cx.kind == CoordKind::kImm && I.cy.kind == CoordKind::kImm) {
      const std::uint64_t addr = addr_of(I.cx.off, I.cy.off);
      const bool in = addr < table.size();
      const double v = in ? static_cast<double>(table[addr]) : 0.0;
      for (int l = 0; l < n; ++l) {
        if (!kAll && !mk[l]) {
          d[l] = 0.0;
          continue;
        }
        if (in)
          model_.Touch(addr);
        else
          model_.Oob();
        d[l] = v;
      }
    } else {
      int cxs[kLanes];
      int cys[kLanes];
      Coords<kAll>(I.cx, mk, cxs);
      Coords<kAll>(I.cy, mk, cys);
      for (int l = 0; l < n; ++l) {
        if (!kAll && !mk[l]) {
          d[l] = 0.0;
          continue;
        }
        const std::uint64_t addr = addr_of(cxs[l], cys[l]);
        if (addr >= table.size()) {
          model_.Oob();
          d[l] = 0.0;
          continue;
        }
        d[l] = static_cast<double>(table[addr]);
        model_.Touch(addr);
      }
    }
    model_.Commit(MemKind::kConstant);
  }

  /// Buffer write of every lane in range; out-of-range lanes are dropped.
  template <bool kAll>
  void Store(const Insn& I) const {
    const int n = N();
    const BufferBinding& buf =
        *bind_.buffers[static_cast<std::size_t>(I.buffer)];
    const double* v = Reg(I.a);
    const std::ptrdiff_t off = kAll ? lanes_.Row(buf, I, n) : -1;
    if (off >= 0) {
      float* dst = buf.data + off;
      for (int l = 0; l < n; ++l) {
        dst[l] = static_cast<float>(v[l]);
        model_.Touch(static_cast<std::uint64_t>(off + l));
      }
      model_.Commit(MemKind::kGlobalWrite);
      return;
    }
    const std::uint8_t* mk = Mask(I.mask);
    int cxs[kLanes];
    int cys[kLanes];
    Coords<kAll>(I.cx, mk, cxs);
    Coords<kAll>(I.cy, mk, cys);
    for (int l = 0; l < n; ++l) {
      if (!kAll && !mk[l]) continue;
      const int px = cxs[l];
      const int py = cys[l];
      if (px < 0 || px >= buf.width || py < 0 || py >= buf.height) {
        model_.Oob();
        continue;
      }
      const std::uint64_t addr =
          static_cast<std::uint64_t>(py) * buf.stride + px;
      buf.data[addr] = static_cast<float>(v[l]);
      model_.Touch(addr);
    }
    model_.Commit(MemKind::kGlobalWrite);
  }

  void Move(const double* s, double* d) const {
    if (d != s) std::copy_n(s, N(), d);
  }

  /// The lane count, a constant when kFixed is set.
  int N() const { return kFixed > 0 ? kFixed : n_; }

  double* regs_;
  ast::ScalarType* types_;
  std::uint8_t* masks_;
  std::size_t stride_;
  const LaunchBindings& bind_;
  const Lanes& lanes_;
  Model& model_;
  int n_;
};

}  // namespace hipacc::sim
