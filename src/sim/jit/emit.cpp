#include "sim/jit/emit.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <set>

#include "support/hash.hpp"
#include "support/string_utils.hpp"

namespace hipacc::sim::jit {

// Defined in the build-generated jit_abi_text.cpp (CMake embeds abi.hpp).
const char* AbiHeaderText();

namespace {

using ast::AssignOp;
using ast::BinaryOp;
using ast::BoundaryMode;
using ast::ScalarType;
using ast::UnaryOp;
using hipacc::StrFormat;

int TypeCode(ScalarType t) { return static_cast<int>(t); }

/// Doubles are emitted through their bit pattern (jit_d helper in the
/// prelude): hexfloat formatting round-trips, but bit-pattern emission is
/// immune to printf/locale corner cases and handles inf/nan uniformly. GCC
/// folds the memcpy to a literal constant.
std::string DLit(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return StrFormat("jit_d(0x%016llxull)", static_cast<unsigned long long>(bits));
}

std::string FLit(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return StrFormat("jit_f(0x%08xu)", bits);
}

/// The self-contained prelude shared by every generated TU: bit-literal
/// constructors, the runtime type conversion, boundary
/// resolution (textually equivalent to dsl::ResolveBoundaryIndex +
/// lane_exec.hpp's ResolveCoord), and the RAII metric flusher. ScalarType /
/// BoundaryMode enum values are baked as integers; the fingerprint pins
// the encoding so an enum reorder invalidates cached objects.
const char kPrelude[] = R"jit(
static inline double jit_d(unsigned long long b) {
  double v;
  std::memcpy(&v, &b, 8);
  return v;
}
static inline float jit_f(unsigned int b) {
  float v;
  std::memcpy(&v, &b, 4);
  return v;
}
// ConvertLaneValue with ScalarType baked: 1=bool 2=int 3=uint 4=float.
static inline double jit_conv(double v, int to) {
  switch (to) {
    case 4: return (double)(float)v;
    case 2:
    case 3: return (double)(long long)v;
    case 1: return v != 0.0 ? 1.0 : 0.0;
    default: return 0.0;
  }
}
// dsl::ResolveBoundaryIndex with BoundaryMode baked:
// 0=undefined 1=repeat 2=clamp 3=mirror 4=constant.
static inline int jit_reflect(int c, int n, int mode) {
  if (n <= 0) return -1;
  if (c >= 0 && c < n) return c;
  switch (mode) {
    case 4: return -1;
    case 0:
    case 2: return c < 0 ? 0 : n - 1;
    case 1: {
      int r = c % n;
      if (r < 0) r += n;
      return r;
    }
    case 3: {
      int r = c % (2 * n);
      if (r < 0) r += 2 * n;
      return r < n ? r : 2 * n - 1 - r;
    }
  }
  return -1;
}
// vm.cpp ResolveCoord.
static inline int jit_resolve(int c, int n, int mode, int check_lo,
                              int check_hi, int hw, int* violation) {
  if (c >= 0 && c < n) return c;
  if (hw) return jit_reflect(c, n, mode == 0 ? 2 : mode);
  const int guarded = (c < 0 && check_lo) || (c >= n && check_hi);
  if (!guarded) {
    *violation = 1;
    return c < 0 ? 0 : n - 1;
  }
  return jit_reflect(c, n, mode);
}
// Accumulates metric deltas in locals; the destructor flushes them on
// every exit path (including error returns), like the VM's CostCounters.
struct JitFlush {
  hipacc::sim::jit::JitWarpCtx* c;
  unsigned long long alu = 0, sfu = 0, oob = 0, n = 0;
  explicit JitFlush(hipacc::sim::jit::JitWarpCtx* ctx) : c(ctx) {}
  ~JitFlush() {
    *c->alu += alu;
    *c->sfu += sfu;
    *c->oob += oob;
    *c->insns += n;
  }
};
)jit";

/// Register type tag of a slot no path into a segment has written yet (the
/// VM's fresh-slot default, kFloat, is what a read would see).
constexpr int kTagUnset = -2;
/// Register type tags that disagree between paths joining at a segment.
constexpr int kTagConflict = -1;

/// How one executed instruction is emitted. Loop heads whose condition is
/// decided at emit time become mask updates (kStaticLive / kStaticExit);
/// the runtime branch closing a segment is kBranch.
enum class StepKind : std::uint8_t {
  kPlain,
  kStaticLive,
  kStaticExit,
  kBranch,
};

struct Step {
  std::int32_t pc;
  StepKind kind;
};

/// Facts that flow along control-flow edges between segments: the static
/// register type tags, and which mask slots are proven to hold an active
/// lane (slot 0 always does: the runner skips warps without one).
struct EdgeState {
  std::vector<int> ty;
  std::vector<char> nonempty;
};

/// Joins `from` into `into`; returns whether `into` changed.
bool MergeInto(EdgeState* into, const EdgeState& from) {
  bool changed = false;
  for (std::size_t r = 0; r < into->ty.size(); ++r) {
    int& t = into->ty[r];
    const int f = from.ty[r];
    const int joined = t == f || f == kTagUnset ? t
                       : t == kTagUnset         ? f
                                                : kTagConflict;
    changed |= joined != t;
    t = joined;
  }
  for (std::size_t m = 0; m < into->nonempty.size(); ++m) {
    const char joined = into->nonempty[m] && from.nonempty[m];
    changed |= joined != into->nonempty[m];
    into->nonempty[m] = joined;
  }
  return changed;
}

/// The VM's type-tag update for one instruction (the lane core's handlers,
/// sim/lane_exec.hpp).
void ApplyTag(const Insn& I, std::vector<int>* ty) {
  switch (I.op) {
    case Op::kConst:
    case Op::kConvert:
    case Op::kUnary:
    case Op::kBinary:
    case Op::kSelect:
    case Op::kCall:
      (*ty)[I.dst] = TypeCode(I.type);
      break;
    case Op::kCopy:
      (*ty)[I.dst] = (*ty)[I.a];
      break;
    case Op::kThreadIdx:
    case Op::kLoopInit:
      (*ty)[I.dst] = TypeCode(ScalarType::kInt);
      break;
    case Op::kLoadImage:
    case Op::kLoadShared:
    case Op::kLoadConst:
      (*ty)[I.dst] = TypeCode(ScalarType::kFloat);
      break;
    default:
      break;  // kAssign / kLoopInc keep the tag; the rest write no register
  }
}

bool WritesReg(Op op) {
  switch (op) {
    case Op::kStore:
    case Op::kBarrier:
    case Op::kAccount:
    case Op::kMaskIf:
    case Op::kJumpIfNone:
    case Op::kLoopHead:
      return false;
    default:
      return true;
  }
}

bool TwoOperandBuiltin(VmBuiltin fn) {
  switch (fn) {
    case VmBuiltin::kAtan2:
    case VmBuiltin::kPow:
    case VmBuiltin::kFmod:
    case VmBuiltin::kFmin:
    case VmBuiltin::kFmax:
    case VmBuiltin::kMin:
    case VmBuiltin::kMax:
      return true;
    default:
      return false;
  }
}

/// Calls `reg` / `mask` for every register / mask slot the emitted code of
/// one step reads (before the step's own writes).
template <typename RegFn, typename MaskFn>
void ForEachRead(const Insn& I, StepKind kind, RegFn reg, MaskFn mask) {
  auto coord = [&](const Coord& c) {
    if (c.kind == CoordKind::kReg) reg(c.reg);
  };
  switch (I.op) {
    case Op::kConst:
    case Op::kThreadIdx:
    case Op::kBarrier:
    case Op::kAccount:
      break;
    case Op::kCopy:
    case Op::kLoopInit:
      if (I.dst != I.a) reg(I.a);  // a self-copy only moves the tag
      break;
    case Op::kConvert:
    case Op::kUnary:
      reg(I.a);
      break;
    case Op::kBinary:
      reg(I.a);
      reg(I.b);
      break;
    case Op::kSelect:
      reg(I.a);
      reg(I.b);
      reg(I.c);
      break;
    case Op::kCall:
      reg(I.a);
      if (TwoOperandBuiltin(static_cast<VmBuiltin>(I.sub))) reg(I.b);
      break;
    case Op::kAssign:  // masked read-modify-write of dst
      reg(I.a);
      reg(I.dst);
      mask(I.mask);
      break;
    case Op::kLoadImage:
    case Op::kLoadShared:
    case Op::kLoadConst:
      mask(I.mask);
      coord(I.cx);
      coord(I.cy);
      break;
    case Op::kStore:
      reg(I.a);
      mask(I.mask);
      coord(I.cx);
      coord(I.cy);
      break;
    case Op::kMaskIf:
      reg(I.a);
      mask(I.mask);
      break;
    case Op::kJumpIfNone:
      mask(I.mask);
      break;
    case Op::kLoopHead:
      if (kind == StepKind::kBranch) {
        reg(I.a);
        reg(I.b);
        mask(I.mask);
      } else if (kind == StepKind::kStaticLive && I.dst != I.mask) {
        mask(I.mask);
      }
      break;
    case Op::kLoopInc:
      reg(I.dst);
      mask(I.mask);
      break;
  }
}

/// Emits one region program as one extern "C" warp function.
///
/// The program is split into segments: straight-line runs that end at a
/// branch whose direction depends on runtime values (kJumpIfNone, or a
/// kLoopHead whose condition the emitter cannot decide). Loops whose trip
/// count is decidable at emit time are unrolled inside a segment; a loop's
/// back edge (kLoopInc) continues into its head, so a runtime loop's body
/// segment ends with the next iteration's condition check. Each segment is
/// one loop over lanes running its instructions in scalar locals, followed
/// by the deferred memory-model replay and stores in instruction order,
/// then one metric update with the segment's constant instruction count
/// and costs, then a goto on the any-reduction of the branch mask — the
/// same decision the VM takes with AnyActive. Values that live across
/// segments stay in the host register file (ctx->regs) and in per-lane
/// mask arrays.
class FnEmitter {
 public:
  FnEmitter(const ProgramSet& ps, const Program& prog, std::string& out)
      : ps_(ps),
        prog_(prog),
        out_(out),
        num_regs_(prog.num_regs > 0 ? prog.num_regs : 1),
        num_masks_(prog.num_masks > 0 ? prog.num_masks : 1) {}

  /// Appends the function, or returns why the program must stay on the VM.
  Status Emit(const std::string& symbol) {
    std::set<int> loaded, stored;
    for (const Insn& I : prog_.code) {
      if (I.op == Op::kLoadImage) loaded.insert(I.buffer);
      if (I.op == Op::kStore) stored.insert(I.buffer);
    }
    // Lanes run in outer order and stores are deferred to the end of their
    // segment, which would reorder a read-after-write through one buffer.
    for (int b : loaded)
      if (stored.count(b))
        return Status::Unimplemented(
            "native tier: buffer " +
            ps_.buffer_names[static_cast<std::size_t>(b)] +
            " is both loaded and stored");
    HIPACC_RETURN_IF_ERROR(Analyze());
    ComputeLiveness();
    std::vector<std::string> segments;
    for (std::size_t b = 0; b < segs_.size(); ++b)
      segments.push_back(EmitSegment(b));
    if (!decline_.empty())
      return Status::Unimplemented("native tier: " + decline_);

    out_ += StrFormat(
        "\nextern \"C\" int %s(hipacc::sim::jit::JitWarpCtx* ctx) {\n",
        symbol.c_str());
    out_ += "  const int W = ctx->warp_size;\n";
    out_ += fchecks_;
    out_ += "  JitFlush fl(ctx);\n";
    out_ += fdecls_;
    if (uses_reg_file_) out_ += "  double* const R = ctx->regs;\n";
    for (int m = 1; m < num_masks_; ++m)
      if (mask_arrays_.count(m))
        out_ += StrFormat("  unsigned char M%d[64];\n", m);
    for (std::size_t b = 0; b < segments.size(); ++b) {
      if (labels_.count(static_cast<int>(b))) out_ += StrFormat("S%zu:\n", b);
      out_ += segments[b];
    }
    if (done_used_) out_ += "done:\n";
    out_ += "  return 0;\n}\n";
    return Status::Ok();
  }

 private:
  // ---- control-flow analysis ---------------------------------------------

  struct Known {
    bool ok = false;
    double v = 0.0;
    /// Mask slot whose lanes all hold `v` (0: every active lane).
    int scope = 0;
  };

  struct Walk {
    std::vector<Step> steps;
    std::int32_t branch = -1;  ///< pc of the closing runtime branch, or -1
    EdgeState out;
    std::map<std::int32_t, int> head_evals;  ///< static head evaluations
    std::int32_t demote = -1;  ///< static loop head to re-emit as runtime
    std::string error;
  };

  struct Segment {
    std::int32_t start = 0;
    EdgeState in;
    std::vector<Step> steps;
    std::int32_t branch = -1;
    int on_any = -1;   ///< successor when the branch mask has a lane
    int on_none = -1;  ///< successor otherwise; -1 = program end
    std::map<std::int32_t, int> head_evals;
    std::vector<char> ue_reg, def_reg, ue_mask, def_mask;
    std::vector<char> live_in_reg, live_out_reg, live_in_mask, live_out_mask;
  };

  static std::int32_t MostEvaluated(const std::map<std::int32_t, int>& evals) {
    std::int32_t best = -1;
    int count = 0;
    for (const auto& [pc, n] : evals)
      if (n > count) {
        best = pc;
        count = n;
      }
    return best;
  }

  /// Walks one segment from `start`, replaying the VM's control flow where
  /// it is decidable at emit time. `known` tracks registers whose value is
  /// the same emit-time constant on every lane of a mask slot (constants,
  /// copies, loop increments); `alias` maps a mask slot to the slot it
  /// equals lane-wise (an unrolled loop's iteration mask equals its entry
  /// mask). Both are segment-local; type tags and non-empty masks cross
  /// segment boundaries through EdgeState.
  Walk WalkSegment(std::int32_t start, const EdgeState& in) const {
    Walk w;
    w.out = in;
    EdgeState& st = w.out;
    std::vector<Known> known(static_cast<std::size_t>(num_regs_));
    std::vector<int> alias(static_cast<std::size_t>(num_masks_));
    for (int m = 0; m < num_masks_; ++m) alias[static_cast<std::size_t>(m)] = m;
    std::vector<std::int32_t> unrolling;  // active static loops, innermost last
    auto covers = [&](const Known& k, int mask) {
      return k.ok && (k.scope == 0 || k.scope == alias[mask]);
    };
    auto write_mask = [&](int s) {
      for (Known& k : known)
        if (k.scope == s) k.ok = false;
      for (int& a : alias)
        if (a == s) a = static_cast<int>(&a - alias.data());
    };
    const std::int32_t n = static_cast<std::int32_t>(prog_.code.size());
    std::int32_t pc = start;
    while (pc != n) {
      if (pc < 0 || pc > n) {
        w.error = "jump target out of range";
        return w;
      }
      if (!w.head_evals.empty() &&
          static_cast<int>(w.steps.size()) >= kMaxFusedSteps) {
        w.demote = MostEvaluated(w.head_evals);
        return w;
      }
      const Insn& I = prog_.code[static_cast<std::size_t>(pc)];
      if (I.op == Op::kJumpIfNone) {
        if (!unrolling.empty()) {
          w.demote = unrolling.back();
          return w;
        }
        w.steps.push_back({pc, StepKind::kBranch});
        w.branch = pc;
        return w;
      }
      if (I.op == Op::kLoopHead) {
        // Decided iff var and bound are emit-time constants on every lane
        // of the entry mask; a live verdict additionally needs that mask
        // non-empty, since the VM's any-reduction is what continues.
        const bool decided = !runtime_heads_.count(pc) &&
                             covers(known[I.a], I.mask) &&
                             covers(known[I.b], I.mask);
        const bool live = decided && known[I.a].v <= known[I.b].v;
        if (!decided || (live && !st.nonempty[I.mask])) {
          if (std::find(unrolling.begin(), unrolling.end(), pc) !=
              unrolling.end())
            w.demote = pc;  // peeled iterations: the loop is runtime after all
          else if (!unrolling.empty())
            w.demote = unrolling.back();
          if (w.demote >= 0) return w;
          write_mask(I.dst);
          w.steps.push_back({pc, StepKind::kBranch});
          w.branch = pc;
          return w;
        }
        ++w.head_evals[pc];
        write_mask(I.dst);
        const int entry = alias[I.mask];
        if (live) {
          if (unrolling.empty() || unrolling.back() != pc)
            unrolling.push_back(pc);
          alias[I.dst] = entry;
          st.nonempty[I.dst] = 1;
          w.steps.push_back({pc, StepKind::kStaticLive});
          ++pc;
        } else {
          if (!unrolling.empty() && unrolling.back() == pc)
            unrolling.pop_back();
          st.nonempty[I.dst] = 0;
          w.steps.push_back({pc, StepKind::kStaticExit});
          pc = I.jump;
        }
        continue;
      }
      switch (I.op) {
        case Op::kConst:
          known[I.dst] = {true, I.imm, 0};
          break;
        case Op::kCopy:
        case Op::kLoopInit:
          known[I.dst] = known[I.a];
          break;
        case Op::kLoopInc: {
          // Only lanes of the iteration mask advance.
          Known& k = known[I.dst];
          if (covers(k, I.mask)) {
            k.v += I.imm;
            k.scope = alias[I.mask];
          } else {
            k.ok = false;
          }
          break;
        }
        case Op::kMaskIf:
          write_mask(I.dst);
          write_mask(I.b);
          st.nonempty[I.dst] = 0;
          st.nonempty[I.b] = 0;
          break;
        default:
          if (WritesReg(I.op)) known[I.dst].ok = false;
          break;
      }
      ApplyTag(I, &st.ty);
      w.steps.push_back({pc, StepKind::kPlain});
      pc = I.op == Op::kLoopInc ? I.jump : pc + 1;
    }
    return w;
  }

  /// Discovers the segments and their entry states (a forward data-flow
  /// fixpoint over the segment graph). A static loop that cannot stay
  /// static — its body holds a runtime branch, a later iteration becomes
  /// undecidable, or unrolling exceeds the budget — is demoted to a
  /// runtime loop and the analysis restarts; every restart demotes a
  /// different loop, so this terminates.
  Status Analyze() {
    const std::int32_t n = static_cast<std::int32_t>(prog_.code.size());
    EdgeState entry;
    entry.ty.assign(static_cast<std::size_t>(num_regs_), kTagUnset);
    for (const ParamSeed& p : prog_.params)
      entry.ty[p.reg] = static_cast<int>(p.type);
    entry.nonempty.assign(static_cast<std::size_t>(num_masks_), 0);
    entry.nonempty[0] = 1;
    for (;;) {
      segs_.clear();
      std::map<std::int32_t, int> seg_at;
      std::deque<int> work;
      std::vector<char> queued;
      auto reach = [&](std::int32_t pc, const EdgeState& state) -> int {
        if (pc == n) return -1;
        auto it = seg_at.find(pc);
        if (it == seg_at.end()) {
          it = seg_at.emplace(pc, static_cast<int>(segs_.size())).first;
          segs_.emplace_back();
          segs_.back().start = pc;
          segs_.back().in = state;
          queued.push_back(1);
          work.push_back(it->second);
        } else if (MergeInto(&segs_[static_cast<std::size_t>(it->second)].in,
                             state) &&
                   !queued[static_cast<std::size_t>(it->second)]) {
          queued[static_cast<std::size_t>(it->second)] = 1;
          work.push_back(it->second);
        }
        return it->second;
      };
      if (reach(0, entry) < 0) return Status::Ok();  // empty program
      std::int32_t demote = -1;
      while (!work.empty() && demote < 0) {
        const int b = work.front();
        work.pop_front();
        queued[static_cast<std::size_t>(b)] = 0;
        Walk w = WalkSegment(segs_[static_cast<std::size_t>(b)].start,
                             segs_[static_cast<std::size_t>(b)].in);
        if (!w.error.empty())
          return Status::Unimplemented("native tier: " + w.error);
        demote = w.demote;
        if (demote >= 0) break;
        int on_any = -1, on_none = -1;
        if (w.branch >= 0) {
          const Insn& I = prog_.code[static_cast<std::size_t>(w.branch)];
          EdgeState any_edge = w.out;
          EdgeState none_edge = w.out;
          if (I.op == Op::kJumpIfNone) {
            any_edge.nonempty[I.mask] = 1;
          } else {
            any_edge.nonempty[I.dst] = 1;
            none_edge.nonempty[I.dst] = 0;
          }
          on_any = reach(w.branch + 1, any_edge);
          on_none = reach(I.jump, none_edge);
        }
        Segment& seg = segs_[static_cast<std::size_t>(b)];
        seg.steps = std::move(w.steps);
        seg.branch = w.branch;
        seg.on_any = on_any;
        seg.on_none = on_none;
        seg.head_evals = std::move(w.head_evals);
      }
      if (demote < 0) {
        // Unrolling budget across all segments (a static loop duplicated
        // into several segments counts once per copy).
        std::size_t total = 0;
        std::map<std::int32_t, int> evals;
        for (const Segment& seg : segs_) {
          total += seg.steps.size();
          for (const auto& [pc, count] : seg.head_evals) evals[pc] += count;
        }
        if (static_cast<int>(total) > kMaxFusedSteps)
          demote = MostEvaluated(evals);
      }
      if (demote < 0) return Status::Ok();
      runtime_heads_.insert(demote);
    }
  }

  /// Backward liveness of registers and mask slots over the segment graph:
  /// a segment loads the values it reads before writing, and stores the
  /// values it writes that a successor may read.
  void ComputeLiveness() {
    const std::size_t nr = static_cast<std::size_t>(num_regs_);
    const std::size_t nm = static_cast<std::size_t>(num_masks_);
    for (Segment& seg : segs_) {
      seg.ue_reg.assign(nr, 0);
      seg.def_reg.assign(nr, 0);
      seg.ue_mask.assign(nm, 0);
      seg.def_mask.assign(nm, 0);
      for (const Step& s : seg.steps) {
        const Insn& I = prog_.code[static_cast<std::size_t>(s.pc)];
        ForEachRead(
            I, s.kind,
            [&](unsigned r) {
              if (!seg.def_reg[r]) seg.ue_reg[r] = 1;
            },
            [&](unsigned m) {
              if (m != 0 && !seg.def_mask[m]) seg.ue_mask[m] = 1;
            });
        if (WritesReg(I.op)) seg.def_reg[I.dst] = 1;
        if (I.op == Op::kMaskIf) {
          seg.def_mask[I.dst] = 1;
          seg.def_mask[I.b] = 1;
        } else if (I.op == Op::kLoopHead) {
          seg.def_mask[I.dst] = 1;
        }
      }
      seg.live_in_reg = seg.ue_reg;
      seg.live_in_mask = seg.ue_mask;
      seg.live_out_reg.assign(nr, 0);
      seg.live_out_mask.assign(nm, 0);
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t i = segs_.size(); i-- > 0;) {
        Segment& seg = segs_[i];
        for (const int s : {seg.on_any, seg.on_none}) {
          if (s < 0) continue;
          const Segment& succ = segs_[static_cast<std::size_t>(s)];
          for (std::size_t r = 0; r < nr; ++r)
            if (succ.live_in_reg[r] && !seg.live_out_reg[r]) {
              seg.live_out_reg[r] = 1;
              if (!seg.def_reg[r]) seg.live_in_reg[r] = 1;
              changed = true;
            }
          for (std::size_t m = 0; m < nm; ++m)
            if (succ.live_in_mask[m] && !seg.live_out_mask[m]) {
              seg.live_out_mask[m] = 1;
              if (!seg.def_mask[m]) seg.live_in_mask[m] = 1;
              changed = true;
            }
        }
      }
    }
  }

  // ---- lane-fused emission ------------------------------------------------
  //
  // One loop over lanes runs a segment's scheduled instructions (with
  // emit-time-decidable loops unrolled) in scalar locals. Register type
  // tags are resolved here at emit time (the emitter replays exactly the
  // tag updates the VM performs at runtime, joined across segment edges);
  // per-insn costs become constants folded into one update per segment.
  // Memory-model address lists are buffered per *scheduled step* — an insn
  // inside an unrolled loop gets one slot per execution — and replayed
  // after the lane loop in schedule order; stores buffer (value, coord,
  // active) per lane and perform the actual global writes in the same
  // post-loop pass, so every observable effect — stored pixels, model call
  // order, metric totals — lands in exactly the VM's order.
  //
  // Float residency: the VM keeps every value as a double, but float-typed
  // results are always exactly-representable floats (every float op rounds
  // through (float)). The fused body therefore keeps such values in real
  // `float` locals (res_[k] == 'F'), eliding the double<->float conversion
  // chatter. This is bit-exact: double carries >= 2*24+2 significand bits,
  // so rounding a float +,-,*,/ or sqrt through double and back (what the
  // VM computes) equals the directly computed float op — and any consumer
  // that wants the raw double reads (double)fK, which reproduces the VM's
  // stored value exactly. Values that are float-*typed* but not float-exact
  // (a kConst whose immediate doesn't round-trip) simply stay double
  // resident; residency is a per-slot emitter fact, independent of the
  // type tag. Values crossing a segment boundary travel as raw doubles.

  /// Static type tag of register `r` as an instruction reads it. A tag
  /// that differs between incoming paths would need the VM's runtime tag,
  /// so the program is declined.
  int Tag(unsigned r) {
    const int t = ty_[r];
    if (t == kTagConflict)
      decline_ = StrFormat("type tags of r%u disagree where paths join", r);
    return t == kTagUnset ? TypeCode(ScalarType::kFloat) : t;
  }

  /// Reads register `r` as the raw double the VM stores: the double local
  /// itself, or the float local widened (exact by construction).
  std::string DX(unsigned r) {
    return res_[r] == 'F' ? StrFormat("(double)f%u", r) : StrFormat("r%u", r);
  }

  /// Reads register `r` as (float)value — the operand form of every
  /// float-mode op. For a float-resident slot this is the local itself.
  std::string FX(unsigned r) {
    return res_[r] == 'F' ? StrFormat("f%u", r) : StrFormat("(float)r%u", r);
  }

  /// Forces register `r` into its double local (exact: widening). Needed
  /// before masked writes that must leave inactive lanes' raw doubles
  /// intact, and before raw-double read-modify-write paths.
  void NormD(unsigned r) {
    if (res_[r] != 'F') return;
    fbody_ += StrFormat("    r%u = (double)f%u;\n", r, r);
    res_[r] = 'D';
  }

  /// Scalar coordinate expression for lane `l`. Register coordinates are
  /// only evaluated under an active mask (the VM zeroes them for inactive
  /// lanes, but inactive lanes never reach an address computation).
  std::string FusedCoord(const Coord& c) {
    switch (c.kind) {
      case CoordKind::kReg: return StrFormat("(int)%s", DX(c.reg).c_str());
      case CoordKind::kGidX:
        return StrFormat("(ctx->gid_xi[l] + (%d))", c.off);
      case CoordKind::kGidY:
        return StrFormat("(ctx->gid_yi[l] + (%d))", c.off);
      case CoordKind::kTidX:
        return StrFormat("(ctx->tid_xi[l] + (%d))", c.off);
      case CoordKind::kTidY:
        return StrFormat("(ctx->tid_yi[l] + (%d))", c.off);
      case CoordKind::kImm: return StrFormat("%d", c.off);
    }
    return "0";
  }

  /// First use of a global buffer: binding check (function entry, before
  /// any side effect) plus hoisted field loads shared by every insn on it.
  void FuseBuffer(int b, bool store) {
    if (!fbuf_seen_.insert(b).second) return;
    fchecks_ += StrFormat(
        "  const hipacc::sim::jit::JitBuffer* b%d = &ctx->buffers[%d];\n", b,
        b);
    fchecks_ += store ? StrFormat(
                            "  if (!b%d->bound || !b%d->writable) return (2 "
                            "<< 16) | %d;\n",
                            b, b, b)
                      : StrFormat("  if (!b%d->bound) return (1 << 16) | %d;\n",
                                  b, b);
    fdecls_ += StrFormat(
        "  const int bw%d = b%d->width; const int bh%d = b%d->height;\n"
        "  const int bs%d = b%d->stride; float* const bp%d = b%d->data;\n",
        b, b, b, b, b, b, b, b);
  }

  void FuseMaskTable(int t) {
    if (!fmask_seen_.insert(t).second) return;
    fchecks_ += StrFormat(
        "  const hipacc::sim::jit::JitMaskTable* mt%d = "
        "&ctx->mask_tables[%d];\n"
        "  if (!mt%d->bound) return (3 << 16) | %d;\n",
        t, t, t, t);
    fdecls_ += StrFormat(
        "  const float* md%d = mt%d->data;"
        " const unsigned long long ms%d = mt%d->size;\n",
        t, t, t, t);
  }

  /// Declares the per-step address buffer and schedules the post-loop
  /// memory-model replay for scheduled step `step` with ABI kind `kind`.
  /// Keyed by step, not pc: an insn inside an unrolled loop issues one
  /// model call per execution, in schedule order — the VM's exact sequence.
  void FuseMemSlot(int step, int kind) {
    fsegdecls_ += StrFormat("    unsigned long long a%d[64]; int n%d = 0;\n",
                         step, step);
    fpost_ += StrFormat(
        "    if (n%d) ctx->mem_access(ctx->host, %d, a%d, n%d);\n", step,
        kind, step, step);
  }

  void EmitFusedBinary(const Insn& I) {
    const BinaryOp op = static_cast<BinaryOp>(I.sub);
    const std::string X = DX(I.a);
    const std::string Y = DX(I.b);
    const std::string D = StrFormat("r%u", I.dst);
    // Promote(a, b) == kFloat iff either operand tag is kFloat; only the
    // four arithmetic ops (and the div cost) depend on it.
    auto float_math = [&] { return Tag(I.a) == 4 || Tag(I.b) == 4; };
    auto set_d = [&] { res_[I.dst] = 'D'; };
    auto cmp = [&](const char* sym) {
      fbody_ += StrFormat("    %s = %s %s %s ? 1.0 : 0.0;\n", D.c_str(),
                          X.c_str(), sym, Y.c_str());
      set_d();
    };
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul: {
        const char sym = op == BinaryOp::kAdd ? '+'
                         : op == BinaryOp::kSub ? '-'
                                                : '*';
        if (float_math()) {
          // Direct float arithmetic: equals the VM's
          // (double)((float)x op (float)y) — double rounding through a
          // format with >= 2p+2 bits is exact for + - * /.
          fbody_ += StrFormat("    f%u = %s %c %s;\n", I.dst,
                              FX(I.a).c_str(), sym, FX(I.b).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    %s = %s %c %s;\n", D.c_str(), X.c_str(),
                              sym, Y.c_str());
          set_d();
        }
        break;
      }
      case BinaryOp::kDiv:
        if (float_math()) {
          falu_ += 5;
          fbody_ += StrFormat("    f%u = %s / %s;\n", I.dst, FX(I.a).c_str(),
                              FX(I.b).c_str());
          res_[I.dst] = 'F';
        } else {
          falu_ += 16;
          fbody_ += StrFormat(
              "    { const long long yi = (long long)%s;\n"
              "      %s = yi == 0 ? 0.0 : (double)((long long)%s / yi); }\n",
              Y.c_str(), D.c_str(), X.c_str());
          set_d();
        }
        break;
      case BinaryOp::kMod:
        fbody_ += StrFormat(
            "    { const long long yi = (long long)%s;\n"
            "      %s = yi == 0 ? 0.0 : (double)((long long)%s %% yi); }\n",
            Y.c_str(), D.c_str(), X.c_str());
        set_d();
        break;
      case BinaryOp::kLt: cmp("<"); break;
      case BinaryOp::kLe: cmp("<="); break;
      case BinaryOp::kGt: cmp(">"); break;
      case BinaryOp::kGe: cmp(">="); break;
      case BinaryOp::kEq: cmp("=="); break;
      case BinaryOp::kNe: cmp("!="); break;
      case BinaryOp::kAnd:
        fbody_ += StrFormat(
            "    %s = (%s != 0.0 && %s != 0.0) ? 1.0 : 0.0;\n", D.c_str(),
            X.c_str(), Y.c_str());
        set_d();
        break;
      case BinaryOp::kOr:
        fbody_ += StrFormat(
            "    %s = (%s != 0.0 || %s != 0.0) ? 1.0 : 0.0;\n", D.c_str(),
            X.c_str(), Y.c_str());
        set_d();
        break;
    }
  }

  void EmitFusedAssign(const Insn& I) {
    const AssignOp op = static_cast<AssignOp>(I.sub);
    const int T = TypeCode(I.type);
    const bool fm = I.type == ScalarType::kFloat;
    const bool cvt = Tag(I.a) != T;
    // Masked writes must leave inactive lanes' values untouched, so the
    // destination's residency cannot change here: a double-resident slot
    // stays double (the float result widens exactly), and a float-resident
    // slot only stays float when the stored value is float-exact —
    // otherwise it is widened to double up front (exact) and written there.
    if (fm && op != AssignOp::kAssign) {
      // CombineLane float fold: d = (double)((float)d op (float)rhs), with
      // (float)rhs == (float)raw regardless of the conversion step — so
      // both operands reduce to their FX forms and the op runs in float
      // (exact through double, >= 2p+2 bits).
      const char sym = op == AssignOp::kAddAssign   ? '+'
                       : op == AssignOp::kSubAssign ? '-'
                       : op == AssignOp::kMulAssign ? '*'
                                                    : '/';
      const std::string val =
          StrFormat("%s %c %s", FX(I.dst).c_str(), sym, FX(I.a).c_str());
      fbody_ += res_[I.dst] == 'F'
                    ? StrFormat("    if (m%u) f%u = %s;\n", I.mask, I.dst,
                                val.c_str())
                    : StrFormat("    if (m%u) r%u = (double)(%s);\n", I.mask,
                                I.dst, val.c_str());
      return;
    }
    if (fm) {
      // Plain float assign: converted or float-resident sources are
      // float-exact; a raw double-resident source keeps the destination
      // double resident.
      if (cvt || res_[I.a] == 'F') {
        const std::string val = cvt ? FX(I.a) : StrFormat("f%u", I.a);
        fbody_ += res_[I.dst] == 'F'
                      ? StrFormat("    if (m%u) f%u = %s;\n", I.mask, I.dst,
                                  val.c_str())
                      : StrFormat("    if (m%u) r%u = (double)%s;\n", I.mask,
                                  I.dst, val.c_str());
      } else {
        NormD(I.dst);
        fbody_ += StrFormat("    if (m%u) r%u = r%u;\n", I.mask, I.dst, I.a);
      }
      return;
    }
    // Integer paths operate on raw doubles.
    NormD(I.dst);
    const std::string D = StrFormat("r%u", I.dst);
    const std::string rhs =
        cvt ? StrFormat("jit_conv(%s, %d)", DX(I.a).c_str(), T) : DX(I.a);
    std::string stmt;
    switch (op) {
      case AssignOp::kAssign:
        stmt = D + " = rhs;";
        break;
      case AssignOp::kAddAssign:
        stmt = D + " = " + D + " + rhs;";
        break;
      case AssignOp::kSubAssign:
        stmt = D + " = " + D + " - rhs;";
        break;
      case AssignOp::kMulAssign:
        stmt = D + " = " + D + " * rhs;";
        break;
      case AssignOp::kDivAssign:
        stmt = D + " = rhs != 0.0 ? (double)((long long)" + D +
               " / (long long)rhs) : 0.0;";
        break;
    }
    fbody_ += StrFormat("    if (m%u) { const double rhs = %s; %s }\n", I.mask,
                        rhs.c_str(), stmt.c_str());
  }

  void EmitFusedLoadImage(int step, const Insn& I) {
    const bool tex = I.sub == 1;
    const bool hw = I.hw_bh || tex;
    const int mode = static_cast<int>(I.boundary);
    const int K = I.buffer;
    FuseBuffer(K, /*store=*/false);
    FuseMemSlot(step, tex ? 4 : 0);
    // Loaded pixels are floats: the result lives in the float local
    // (res F), and every written value — pixel, boundary constant, masked
    // zero — is float-exact.
    fbody_ += StrFormat(
        "    if (!m%u) { f%u = 0.0f; } else {\n"
        "      const int cx = %s; const int cy = %s;\n"
        "      if ((unsigned)cx < (unsigned)bw%d && (unsigned)cy < "
        "(unsigned)bh%d) {\n"
        "        const unsigned long long ad =\n"
        "            (unsigned long long)cy * bs%d + cx;\n"
        "        f%u = bp%d[ad]; a%d[n%d++] = ad;\n"
        "      } else {\n",
        I.mask, I.dst, FusedCoord(I.cx).c_str(), FusedCoord(I.cy).c_str(), K,
        K, K, I.dst, K, step, step);
    const bool cguard = I.boundary == BoundaryMode::kConstant && !I.hw_bh;
    if (cguard)
      fbody_ += StrFormat(
          "        const int oob_x = (cx < 0 && %d) || (cx >= bw%d && %d);\n"
          "        const int oob_y = (cy < 0 && %d) || (cy >= bh%d && %d);\n"
          "        if (oob_x || oob_y) { f%u = %s; } else {\n",
          I.checks.lo_x ? 1 : 0, K, I.checks.hi_x ? 1 : 0,
          I.checks.lo_y ? 1 : 0, K, I.checks.hi_y ? 1 : 0, I.dst,
          FLit(I.cvalue).c_str());
    fbody_ += StrFormat(
        "        int violation = 0;\n"
        "        const int rx = jit_resolve(cx, bw%d, %d, %d, %d, %d, "
        "&violation);\n"
        "        const int ry = jit_resolve(cy, bh%d, %d, %d, %d, %d, "
        "&violation);\n"
        "        if (violation) ++fl.oob;\n"
        "        if (rx < 0 || ry < 0) { f%u = %s; }\n"
        "        else { const unsigned long long ad =\n"
        "                   (unsigned long long)ry * bs%d + rx;\n"
        "               f%u = bp%d[ad]; a%d[n%d++] = ad; }\n",
        K, mode, I.checks.lo_x ? 1 : 0, I.checks.hi_x ? 1 : 0, hw ? 1 : 0, K,
        mode, I.checks.lo_y ? 1 : 0, I.checks.hi_y ? 1 : 0, hw ? 1 : 0, I.dst,
        FLit(I.cvalue).c_str(), K, I.dst, K, step, step);
    if (cguard) fbody_ += "        }\n";
    fbody_ += "      }\n    }\n";
    res_[I.dst] = 'F';
  }

  void EmitFusedLoadShared(int step, const Insn& I) {
    if (!ftile_) {
      ftile_ = true;
      fdecls_ +=
          "  const float* tile = ctx->tile;\n"
          "  const int tw = ctx->tile_w; const int th = ctx->tile_h;\n";
    }
    FuseMemSlot(step, 2);
    fbody_ += StrFormat(
        "    if (!m%u) { f%u = 0.0f; } else {\n"
        "      const int sx = %s; const int sy = %s;\n"
        "      if (sx < 0 || sx >= tw || sy < 0 || sy >= th) {\n"
        "        ++fl.oob; f%u = 0.0f;\n"
        "      } else {\n"
        "        const unsigned long long ad =\n"
        "            (unsigned long long)sy * tw + sx;\n"
        "        f%u = tile[ad]; a%d[n%d++] = ad;\n"
        "      }\n    }\n",
        I.mask, I.dst, FusedCoord(I.cx).c_str(), FusedCoord(I.cy).c_str(),
        I.dst, I.dst, step, step);
    res_[I.dst] = 'F';
  }

  void EmitFusedLoadConst(int step, const Insn& I) {
    const int width = ps_.const_masks[static_cast<std::size_t>(I.buffer)].width;
    FuseMaskTable(I.buffer);
    FuseMemSlot(step, 3);
    fbody_ += StrFormat(
        "    if (!m%u) { f%u = 0.0f; } else {\n"
        "      const unsigned long long ad =\n"
        "          (unsigned long long)(%s) * %d + (%s);\n"
        "      if (ad >= ms%d) { ++fl.oob; f%u = 0.0f; }\n"
        "      else { f%u = md%d[ad]; a%d[n%d++] = ad; }\n"
        "    }\n",
        I.mask, I.dst, FusedCoord(I.cy).c_str(), width,
        FusedCoord(I.cx).c_str(), I.buffer, I.dst, I.dst, I.buffer, step,
        step);
    res_[I.dst] = 'F';
  }

  void EmitFusedStore(int step, const Insn& I) {
    const int K = I.buffer;
    FuseBuffer(K, /*store=*/true);
    // The VM narrows to float at write time, so the deferred value is
    // buffered as the float actually stored.
    fsegdecls_ += StrFormat(
        "    unsigned long long a%d[64]; int n%d = 0;\n"
        "    float sv%d[64]; int sx%d[64]; int sy%d[64];"
        " unsigned char sm%d[64];\n",
        step, step, step, step, step, step);
    fbody_ += StrFormat(
        "    sm%d[l] = m%u;\n"
        "    if (m%u) { sv%d[l] = %s; sx%d[l] = %s; sy%d[l] = %s; }\n",
        step, I.mask, I.mask, step, FX(I.a).c_str(), step,
        FusedCoord(I.cx).c_str(), step, FusedCoord(I.cy).c_str());
    // Deferred write-back: lane order within the insn, schedule order
    // across steps — the VM's exact store order, so colliding addresses
    // resolve identically.
    fpost_ += StrFormat(
        "    for (int l = 0; l < W; ++l) {\n"
        "      if (!sm%d[l]) continue;\n"
        "      const int px = sx%d[l]; const int py = sy%d[l];\n"
        "      if (px < 0 || px >= bw%d || py < 0 || py >= bh%d) {\n"
        "        ++fl.oob; continue;\n"
        "      }\n"
        "      const unsigned long long ad = (unsigned long long)py * bs%d + "
        "px;\n"
        "      bp%d[ad] = sv%d[l]; a%d[n%d++] = ad;\n"
        "    }\n"
        "    if (n%d) ctx->mem_access(ctx->host, 1, a%d, n%d);\n",
        step, step, step, K, K, K, K, step, step, step, step, step, step);
  }

  /// Emits one float-builtin call with float-resident operands/result where
  /// the VM computes in float anyway (same libm entry points, so results
  /// are bit-identical); min/max/abs operate on the raw doubles.
  void EmitFusedCall(const Insn& I) {
    const VmBuiltin fn = static_cast<VmBuiltin>(I.sub);
    // VmBuiltin order; null entries are emitted below.
    static const char* const kLibm[] = {
        "exp",  "exp2", "log",  "log2",  "sqrt",  nullptr, "sin",  "cos",
        "tan",  "atan", "atan2", "pow",  "fmod",  "fabs",  "fmin", "fmax",
        "floor", "ceil", "round", nullptr, nullptr, nullptr};
    const char* nm = kLibm[I.sub];
    switch (fn) {
      case VmBuiltin::kRsqrt:
        fbody_ += StrFormat("    f%u = 1.0f / std::sqrt(%s);\n", I.dst,
                            FX(I.a).c_str());
        res_[I.dst] = 'F';
        return;
      case VmBuiltin::kMin:
        fbody_ += StrFormat("    r%u = std::min(%s, %s);\n", I.dst,
                            DX(I.a).c_str(), DX(I.b).c_str());
        res_[I.dst] = 'D';
        return;
      case VmBuiltin::kMax:
        fbody_ += StrFormat("    r%u = std::max(%s, %s);\n", I.dst,
                            DX(I.a).c_str(), DX(I.b).c_str());
        res_[I.dst] = 'D';
        return;
      case VmBuiltin::kAbs:
        fbody_ += StrFormat("    r%u = std::fabs(%s);\n", I.dst,
                            DX(I.a).c_str());
        res_[I.dst] = 'D';
        return;
      default:
        break;
    }
    fbody_ += TwoOperandBuiltin(fn)
                  ? StrFormat("    f%u = std::%s(%s, %s);\n", I.dst, nm,
                              FX(I.a).c_str(), FX(I.b).c_str())
                  : StrFormat("    f%u = std::%s(%s);\n", I.dst, nm,
                              FX(I.a).c_str());
    res_[I.dst] = 'F';
  }

  void EmitFusedInsn(int step, std::int32_t pc, const Insn& I, StepKind kind) {
    falu_ += I.alu_cost;
    fsfu_ += I.sfu_cost;
    const int T = TypeCode(I.type);
    fbody_ += StrFormat("    // [%d]\n", pc);
    switch (I.op) {
      case Op::kConst: {
        // Float-exact immediates become float resident; everything else
        // (including any NaN, whose payload must survive raw reads) stays
        // in the double local.
        const double rt = static_cast<double>(static_cast<float>(I.imm));
        const bool fexact = std::memcmp(&rt, &I.imm, sizeof(rt)) == 0;
        if (fexact) {
          fbody_ += StrFormat("    f%u = %s;\n", I.dst,
                              FLit(static_cast<float>(I.imm)).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    r%u = %s;\n", I.dst, DLit(I.imm).c_str());
          res_[I.dst] = 'D';
        }
        break;
      }
      case Op::kCopy:
      case Op::kLoopInit:
        if (I.dst != I.a)
          fbody_ += res_[I.a] == 'F'
                        ? StrFormat("    f%u = f%u;\n", I.dst, I.a)
                        : StrFormat("    r%u = r%u;\n", I.dst, I.a);
        res_[I.dst] = res_[I.a];
        break;
      case Op::kConvert:
        if (Tag(I.a) == T) {
          if (I.dst != I.a)
            fbody_ += res_[I.a] == 'F'
                          ? StrFormat("    f%u = f%u;\n", I.dst, I.a)
                          : StrFormat("    r%u = r%u;\n", I.dst, I.a);
          res_[I.dst] = res_[I.a];
        } else if (T == 4) {
          // jit_conv(v, 4) == (double)(float)v: the float local holds it.
          fbody_ += StrFormat("    f%u = %s;\n", I.dst, FX(I.a).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    r%u = jit_conv(%s, %d);\n", I.dst,
                              DX(I.a).c_str(), T);
          res_[I.dst] = 'D';
        }
        break;
      case Op::kUnary:
        if (static_cast<UnaryOp>(I.sub) == UnaryOp::kNot) {
          fbody_ += StrFormat("    r%u = %s == 0.0 ? 1.0 : 0.0;\n", I.dst,
                              DX(I.a).c_str());
          res_[I.dst] = 'D';
        } else if (I.type == ScalarType::kFloat) {
          fbody_ += StrFormat("    f%u = -%s;\n", I.dst, FX(I.a).c_str());
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    r%u = -%s;\n", I.dst, DX(I.a).c_str());
          res_[I.dst] = 'D';
        }
        break;
      case Op::kBinary:
        EmitFusedBinary(I);
        break;
      case Op::kSelect:
        // Raw selection between the operands' stored values; float resident
        // only when both arms already are.
        if (res_[I.b] == 'F' && res_[I.c] == 'F') {
          fbody_ += StrFormat("    f%u = %s != 0.0 ? f%u : f%u;\n", I.dst,
                              DX(I.a).c_str(), I.b, I.c);
          res_[I.dst] = 'F';
        } else {
          fbody_ += StrFormat("    r%u = %s != 0.0 ? %s : %s;\n", I.dst,
                              DX(I.a).c_str(), DX(I.b).c_str(),
                              DX(I.c).c_str());
          res_[I.dst] = 'D';
        }
        break;
      case Op::kCall:
        EmitFusedCall(I);
        break;
      case Op::kThreadIdx: {
        // ThreadIndexKind order; per-lane indices are the integer mirrors
        // (exact as doubles).
        static const char* const kSource[] = {
            "tid_xi[l]",   "tid_yi[l]",   "bix",        "biy",
            "block_dim_x", "block_dim_y", "grid_dim_x", "grid_dim_y",
            "gid_xi[l]",   "gid_yi[l]",   "image_w",    "image_h"};
        fbody_ += StrFormat("    r%u = ctx->%s;\n", I.dst, kSource[I.sub]);
        res_[I.dst] = 'D';
        break;
      }
      case Op::kAssign:
        EmitFusedAssign(I);
        break;
      case Op::kLoadImage:
        EmitFusedLoadImage(step, I);
        break;
      case Op::kLoadShared:
        EmitFusedLoadShared(step, I);
        break;
      case Op::kLoadConst:
        EmitFusedLoadConst(step, I);
        break;
      case Op::kStore:
        EmitFusedStore(step, I);
        break;
      case Op::kBarrier:
      case Op::kAccount:
        break;
      case Op::kMaskIf:
        fbody_ += StrFormat(
            "    { const unsigned char inv = m%u;\n"
            "      const int tk = inv && %s != 0.0;\n"
            "      m%u = (unsigned char)tk;"
            " m%u = (unsigned char)(inv && !tk); }\n",
            I.mask, DX(I.a).c_str(), I.dst, I.b);
        break;
      case Op::kJumpIfNone:
        fbody_ += StrFormat("    any |= m%u;\n", I.mask);
        break;
      case Op::kLoopHead:
        if (kind == StepKind::kBranch) {
          fbody_ += StrFormat(
              "    { const unsigned char lv =\n"
              "          (unsigned char)(m%u && %s <= %s);\n"
              "      m%u = lv; any |= lv; }\n",
              I.mask, DX(I.a).c_str(), DX(I.b).c_str(), I.dst);
        } else if (kind == StepKind::kStaticExit) {
          // Decided false on every lane of the entry mask: live = in &&
          // false = 0 everywhere.
          fbody_ += StrFormat("    m%u = 0;\n", I.dst);
        } else if (I.dst != I.mask) {
          // Decided true on every lane of the (non-empty) entry mask:
          // live = in && true lane-wise.
          fbody_ += StrFormat("    m%u = m%u;\n", I.dst, I.mask);
        }
        break;
      case Op::kLoopInc:
        // The VM increments the raw double only for lanes active in the
        // loop mask — inactive lanes keep their stale value, which must be
        // preserved (raw register state persists across the program).
        NormD(I.dst);
        fbody_ += StrFormat("    if (m%u) r%u += %s;\n", I.mask, I.dst,
                            DLit(I.imm).c_str());
        break;
    }
    ApplyTag(I, &ty_);
  }

  std::string SegmentLabel(int b) {
    if (b < 0) {
      done_used_ = true;
      return "done";
    }
    labels_.insert(b);
    return StrFormat("S%d", b);
  }

  std::string EmitSegment(std::size_t b) {
    const Segment& seg = segs_[b];
    ty_ = seg.in.ty;
    res_.assign(static_cast<std::size_t>(num_regs_), 'D');
    fsegdecls_.clear();
    fbody_.clear();
    fpost_.clear();
    falu_ = 0;
    fsfu_ = 0;
    for (const Step& s : seg.steps)
      EmitFusedInsn(next_step_++, s.pc,
                    prog_.code[static_cast<std::size_t>(s.pc)], s.kind);

    std::string text;
    text += StrFormat("  {  // segment %zu: pc %d\n", b, seg.start);
    text += fsegdecls_;
    if (seg.branch >= 0) text += "    unsigned char any = 0;\n";
    // Zero-initialised locals, eight per declaration line.
    auto declare = [&text](const char* type, char prefix, int from, int to) {
      for (int k = from; k < to; ++k)
        text += (k - from) % 8 == 0
                    ? StrFormat("%s      %s %c%d = 0", k > from ? ";\n" : "",
                                type, prefix, k)
                    : StrFormat(", %c%d = 0", prefix, k);
      if (to > from) text += ";\n";
    };
    text += "    for (int l = 0; l < W; ++l) {\n";
    declare("double", 'r', 0, num_regs_);
    declare("float", 'f', 0, num_regs_);
    text += "      unsigned char m0 = ctx->masks[l];\n";
    declare("unsigned char", 'm', 1, num_masks_);
    text += "      (void)m0; (void)r0; (void)f0;\n";
    for (int r = 0; r < num_regs_; ++r)
      if (seg.ue_reg[static_cast<std::size_t>(r)]) {
        uses_reg_file_ = true;
        text += StrFormat("      r%d = R[%d * 64 + l];\n", r, r);
      }
    for (int m = 1; m < num_masks_; ++m)
      if (seg.ue_mask[static_cast<std::size_t>(m)]) {
        mask_arrays_.insert(m);
        text += StrFormat("      m%d = M%d[l];\n", m, m);
      }
    // The lane-loop body is indented one level deeper than the fused
    // emitters write it.
    for (std::size_t pos = 0; pos < fbody_.size();) {
      const std::size_t eol = fbody_.find('\n', pos);
      text += "  " + fbody_.substr(pos, eol - pos + 1);
      pos = eol + 1;
    }
    for (int r = 0; r < num_regs_; ++r) {
      const std::size_t i = static_cast<std::size_t>(r);
      if (seg.def_reg[i] && seg.live_out_reg[i]) {
        uses_reg_file_ = true;
        text += StrFormat("      R[%d * 64 + l] = %s;\n", r,
                         DX(static_cast<unsigned>(r)).c_str());
      }
    }
    for (int m = 1; m < num_masks_; ++m) {
      const std::size_t i = static_cast<std::size_t>(m);
      if (seg.def_mask[i] && seg.live_out_mask[i]) {
        mask_arrays_.insert(m);
        text += StrFormat("      M%d[l] = m%d;\n", m, m);
      }
    }
    text += "    }\n";
    text += fpost_;
    text += StrFormat("    fl.n += %lluull;\n",
                     static_cast<unsigned long long>(seg.steps.size()));
    if (falu_) text += StrFormat("    fl.alu += %lluull;\n", falu_);
    if (fsfu_) text += StrFormat("    fl.sfu += %lluull;\n", fsfu_);
    if (seg.branch >= 0) {
      text += StrFormat("    if (any) goto %s;\n    goto %s;\n",
                       SegmentLabel(seg.on_any).c_str(),
                       SegmentLabel(seg.on_none).c_str());
    } else if (b + 1 != segs_.size()) {
      text += StrFormat("    goto %s;\n", SegmentLabel(-1).c_str());
    }
    text += "  }\n";
    return text;
  }

  const ProgramSet& ps_;
  const Program& prog_;
  std::string& out_;
  const int num_regs_;
  const int num_masks_;
  /// Unroll budget: static loops whose unrolled steps would exceed it are
  /// emitted as runtime loops instead (keeps generated TUs and host-compile
  /// times bounded).
  static constexpr int kMaxFusedSteps = 8192;
  std::set<std::int32_t> runtime_heads_;
  std::vector<Segment> segs_;
  std::set<int> labels_;
  bool done_used_ = false;
  bool uses_reg_file_ = false;
  std::set<int> mask_arrays_;
  std::string decline_;
  int next_step_ = 0;
  std::vector<int> ty_;
  std::vector<char> res_;
  std::set<int> fbuf_seen_, fmask_seen_;
  std::string fchecks_, fdecls_, fsegdecls_, fbody_, fpost_;
  bool ftile_ = false;
  unsigned long long falu_ = 0, fsfu_ = 0;
};

std::string StripPragmaOnce(std::string text) {
  const std::size_t pos = text.find("#pragma once");
  if (pos != std::string::npos) text.erase(pos, std::strlen("#pragma once"));
  return text;
}

}  // namespace

unsigned long long ProgramFingerprint(const ProgramSet& ps) {
  support::Fnv1a h;
  // Encoding version: bump when the emitted semantics change without an ABI
  // layout change (the ABI version is mixed separately by the cache).
  h.Mix(std::uint64_t{2});
  h.Mix(static_cast<std::uint64_t>(ps.buffer_names.size()));
  h.Mix(static_cast<std::uint64_t>(ps.const_masks.size()));
  for (const auto& mref : ps.const_masks) h.Mix(mref.width);
  h.Mix(ps.ppt);
  h.Mix(static_cast<std::uint64_t>(ps.programs.size()));
  for (const Program& prog : ps.programs) {
    h.Mix(static_cast<int>(prog.region));
    h.Mix(prog.num_regs);
    h.Mix(prog.num_masks);
    h.Mix(static_cast<std::uint64_t>(prog.code.size()));
    for (const Insn& I : prog.code) {
      h.Mix(static_cast<int>(I.op));
      h.Mix(static_cast<int>(I.type));
      h.Mix(static_cast<int>(I.sub));
      h.Mix(I.hw_bh);
      h.Mix(static_cast<int>(I.dst));
      h.Mix(static_cast<int>(I.a));
      h.Mix(static_cast<int>(I.b));
      h.Mix(static_cast<int>(I.c));
      h.Mix(static_cast<int>(I.mask));
      h.Mix(static_cast<int>(I.jump));
      h.Mix(static_cast<int>(I.alu_cost));
      h.Mix(static_cast<int>(I.sfu_cost));
      h.Mix(I.imm);
      h.Mix(static_cast<int>(I.buffer));
      for (const Coord& c : {I.cx, I.cy}) {
        h.Mix(static_cast<int>(c.kind));
        h.Mix(static_cast<int>(c.reg));
        h.Mix(c.off);
      }
      h.Mix(static_cast<int>(I.boundary));
      h.Mix(I.checks.lo_x);
      h.Mix(I.checks.hi_x);
      h.Mix(I.checks.lo_y);
      h.Mix(I.checks.hi_y);
      h.Mix(I.cvalue);
    }
  }
  return h.digest();
}

Result<EmittedSource> EmitNativeSource(const ProgramSet& ps) {
  EmittedSource out;
  support::Fnv1a h;
  h.Mix(static_cast<std::uint64_t>(ProgramFingerprint(ps)));
  const std::string tag = h.hex();
  out.source = StrFormat(
      "// Generated by the hipacc simulator native tier.\n"
      "// kernel: %s  fingerprint: %s\n"
      "#include <algorithm>\n"
      "#include <cmath>\n"
      "#include <cstring>\n",
      ps.kernel_name.c_str(), tag.c_str());
  out.source += StripPragmaOnce(AbiHeaderText());
  out.source += "\nnamespace {\n";
  out.source += kPrelude;
  out.source += "}  // namespace\n";
  for (const Program& prog : ps.programs) {
    const std::string symbol =
        StrFormat("hipacc_jit_%s_r%d", tag.c_str(), static_cast<int>(prog.region));
    HIPACC_RETURN_IF_ERROR(FnEmitter(ps, prog, out.source).Emit(symbol));
    out.symbols.push_back({prog.region, symbol});
  }
  return out;
}

}  // namespace hipacc::sim::jit
