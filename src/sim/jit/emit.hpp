// C++ source emitter for the native tier: partial evaluation of the
// bytecode VM over one ProgramSet. Every instruction's handler body is
// emitted with its fields (opcode, sub-op, types, coordinates, boundary
// mode, guard set, costs, immediates) baked in as constants.
//
// Each region program is split into straight-line segments at the branches
// whose direction depends on runtime values; loops with emit-time trip
// counts are unrolled inside a segment. One loop over lanes runs a segment
// in scalar locals, with register *types* resolved statically (the VM's
// tag updates replayed at emit time and joined across segment edges).
// Memory-model address lists are buffered per instruction during the lane
// loop and replayed after it in program order; stores are deferred the
// same way, so global-memory writes and model calls happen in exactly the
// VM's order and the results stay bit-identical. Segments hand over to
// each other with gotos on the any-reduction of the branch mask, exactly
// as the VM's AnyActive decides.
#pragma once

#include <string>
#include <vector>

#include "ast/metadata.hpp"
#include "sim/bytecode.hpp"
#include "support/status.hpp"

namespace hipacc::sim::jit {

/// A generated translation unit for one ProgramSet: self-contained C++
/// (standard headers + the embedded ABI text only) exporting one
/// extern "C" warp function per region program.
struct EmittedSource {
  struct SymbolInfo {
    ast::Region region = ast::Region::kInterior;
    std::string symbol;
  };
  std::string source;
  std::vector<SymbolInfo> symbols;
};

/// Stable content fingerprint over every semantic field of every
/// instruction (plus the program/table shapes). Used both for symbol
/// naming and as the shared-object cache identity.
unsigned long long ProgramFingerprint(const ProgramSet& ps);

/// Emits the translation unit. Every function checks its buffer and mask
/// bindings on entry, before any side effect (callers keep launches whose
/// checks would fail on the VM). Returns Unimplemented for programs the
/// emitter cannot keep bit-identical — a buffer both loaded and stored, or
/// register type tags that disagree where paths join and are then read —
/// which keeps the whole kernel on the VM.
Result<EmittedSource> EmitNativeSource(const ProgramSet& ps);

}  // namespace hipacc::sim::jit
