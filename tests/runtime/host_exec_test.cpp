// Host bytecode executor (runtime/host_exec.hpp): RunOnHost must write the
// same bits as an AST-engine simulator launch of the same compiled kernel.
// Extents are chosen so segments fill whole 256-lane chunks, partial
// chunks, or both, and include degenerate ones: single pixels, single rows
// and columns, and extents of exactly twice the halo of a 3x3 or 5x5 window
// and one less. Only on a degenerate extent may the host decline with
// Unimplemented, and then before writing anything. Every boundary mode
// runs. A launch with a broken binding must fail with
// the simulator's text. The kernels cover fusable
// convolution taps in both operand orders, kernels the lowering must leave
// unfused (a compare-exchange median, a runtime loop, a divergent branch, a
// tap whose product is read again after it was accumulated), and
// multi-input point operators.
#include "runtime/host_exec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compiler/driver.hpp"
#include "image/synthetic.hpp"
#include "ops/isp.hpp"
#include "ops/kernel_sources.hpp"
#include "runtime/bindings.hpp"
#include "sim/simulator.hpp"
#include "support/string_utils.hpp"

namespace hipacc {
namespace {

using ast::BoundaryMode;

struct Extent {
  int width;
  int height;
  /// The host may decline this extent with Unimplemented (before writing
  /// anything) instead of running it.
  bool may_decline = false;
};

constexpr Extent kExtents[] = {
    {7, 5}, {255, 3}, {256, 64}, {257, 130}, {513, 17},
    // Degenerate: 1x1, one column, one row; 2 and 4 are twice the halo of
    // a 3x3 and a 5x5 window, 1 and 3 one less.
    {1, 1, true}, {1, 9, true}, {9, 1, true}, {2, 2, true}, {4, 4, true},
    {3, 3, true}, {2, 4, true}, {4, 3, true}};

/// Output fill that no kernel here computes: a pixel still holding it was
/// not written.
constexpr float kUnwritten = -12345.0f;

bool Untouched(const dsl::Image<float>& image) {
  const HostImage<float>& data = image.getData();
  for (std::size_t i = 0; i < data.size(); ++i)
    if (data.data()[i] != kUnwritten) return false;
  return true;
}

constexpr BoundaryMode kModes[] = {BoundaryMode::kUndefined,
                                   BoundaryMode::kRepeat, BoundaryMode::kClamp,
                                   BoundaryMode::kMirror,
                                   BoundaryMode::kConstant};

using Scalars = std::vector<std::pair<std::string, double>>;
/// Rewrites a compiled program set before the host run (see
/// TapProductReadAfterAccumulateMatchesAst).
using Patch = void (*)(sim::ProgramSet*);

/// Compiles `source` for one extent, runs it through RunOnHost and on the
/// AST simulator engine with the same noise inputs (one per accessor in
/// `inputs`), and expects bitwise-equal outputs. On a degenerate extent
/// (`may_decline`) the host may instead return Unimplemented having written
/// nothing; the kernel is then compiled again with uniform guards (one
/// program for the whole image) and tried once more. Images too small for
/// the nine boundary regions of the chosen launch configuration, which the
/// simulator rejects, are compiled again with uniform guards as well.
void ExpectHostMatchesAst(const frontend::KernelSource& source,
                          const std::vector<std::string>& inputs,
                          const Scalars& scalars, Extent extent,
                          Patch patch = nullptr) {
  const int w = extent.width;
  const int h = extent.height;
  SCOPED_TRACE(StrFormat("%s %dx%d", source.name.c_str(), w, h));
  std::vector<std::unique_ptr<dsl::Image<float>>> images;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    images.push_back(std::make_unique<dsl::Image<float>>(w, h));
    images.back()->CopyFrom(MakeNoiseImage(w, h, 31 + i));
  }
  for (const codegen::BorderPolicy border :
       {codegen::BorderPolicy::kRegions, codegen::BorderPolicy::kUniform}) {
    compiler::CompileOptions options;
    options.image_width = w;
    options.image_height = h;
    options.codegen.border = border;
    const Result<compiler::CompiledKernel> compiled =
        compiler::Compile(source, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const compiler::CompiledKernel& ck = compiled.value();
    ASSERT_NE(ck.bytecode, nullptr);
    sim::ProgramSet programs = *ck.bytecode;
    if (patch != nullptr) patch(&programs);

    auto run = [&](dsl::Image<float>& out, bool host) -> Status {
      runtime::BindingSet bindings;
      for (std::size_t i = 0; i < inputs.size(); ++i)
        bindings.Input(inputs[i], *images[i]);
      bindings.Output(out);
      for (const auto& [name, value] : scalars) bindings.Scalar(name, value);
      Result<runtime::LaunchHolder> holder =
          runtime::BuildLaunch(ck.device_ir, ck.config.config, bindings);
      if (!holder.ok()) return holder.status();
      sim::Launch& launch = holder.value().launch;
      if (host) {
        launch.programs = &programs;
        runtime::HostExecOptions exec;
        exec.threads = 2;
        return runtime::RunOnHost(launch, ck.device_ir.bh_window.half_x,
                                  ck.device_ir.bh_window.half_y, exec);
      }
      sim::SimulatorOptions sim_options;
      sim_options.engine = sim::ExecEngine::kAst;
      return sim::Simulator(options.device, sim_options)
          .Execute(launch)
          .status();
    };

    dsl::Image<float> want(w, h), got(w, h);
    got.CopyFrom(HostImage<float>(w, h, kUnwritten));
    const Status ast = run(want, /*host=*/false);
    if (!ast.ok() && border == codegen::BorderPolicy::kRegions &&
        ast.message().find("boundary regions would overlap") !=
            std::string::npos)
      continue;
    ASSERT_TRUE(ast.ok()) << ast.ToString();
    const Status host = run(got, /*host=*/true);
    if (host.code() == StatusCode::kUnimplemented && extent.may_decline) {
      EXPECT_TRUE(Untouched(got))
          << "declined after writing: " << host.ToString();
      continue;
    }
    ASSERT_TRUE(host.ok()) << host.ToString();
    const HostImage<float> a = want.getData();
    const HostImage<float> b = got.getData();
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "host output differs bitwise from the AST engine";
    return;
  }
}

void ExpectHostMatchesAstEverywhere(
    frontend::KernelSource (*make)(BoundaryMode), const Scalars& scalars = {},
    Patch patch = nullptr) {
  for (const BoundaryMode mode : kModes) {
    SCOPED_TRACE(to_string(mode));
    for (const Extent extent : kExtents)
      ExpectHostMatchesAst(make(mode), {"Input"}, scalars, extent, patch);
  }
}

/// 3x3 convolution whose body is `body` (mask "M", accessor "Input").
frontend::KernelSource Conv3Body(const char* name, const char* body,
                                 BoundaryMode mode) {
  frontend::KernelSource src = ops::ConvolutionSource(
      name, 3, 3,
      {0.0625f, 0.125f, 0.0625f, 0.125f, 0.25f, 0.125f, 0.0625f, 0.125f,
       0.0625f},
      mode, 0.25f);
  src.body = body;
  return src;
}

TEST(HostExecTest, GaussiansMatchAst) {
  ExpectHostMatchesAstEverywhere(
      [](BoundaryMode mode) { return ops::GaussianSource(3, 0.8f, mode); });
  ExpectHostMatchesAstEverywhere(
      [](BoundaryMode mode) { return ops::GaussianSource(5, 1.2f, mode); });
}

TEST(HostExecTest, DebayerPlanesMatchAst) {
  ExpectHostMatchesAstEverywhere(
      [](BoundaryMode mode) { return ops::DebayerPlaneSource('r', mode); });
  ExpectHostMatchesAstEverywhere(
      [](BoundaryMode mode) { return ops::DebayerPlaneSource('g', mode); });
  ExpectHostMatchesAstEverywhere(
      [](BoundaryMode mode) { return ops::DebayerPlaneSource('b', mode); });
}

TEST(HostExecTest, ColorMatricesMatchAst) {
  // The BT.601 rows of ops::BuildCameraIspGraph.
  const Scalars rows[] = {
      {{"c_r", 0.299}, {"c_g", 0.587}, {"c_b", 0.114}, {"bias", 0.0}},
      {{"c_r", -0.168736}, {"c_g", -0.331264}, {"c_b", 0.5}, {"bias", 0.5}},
      {{"c_r", 0.5}, {"c_g", -0.418688}, {"c_b", -0.081312}, {"bias", 0.5}},
  };
  for (const Scalars& row : rows)
    for (const Extent extent : kExtents)
      ExpectHostMatchesAst(ops::ColorMatrixSource("rgb2yuv"), {"R", "G", "B"},
                           row, extent);
}

TEST(HostExecTest, MedianMatchesAst) {
  ExpectHostMatchesAstEverywhere(ops::Median3x3Source);
}

TEST(HostExecTest, BilateralWithRuntimeLoopMatchesAst) {
  ExpectHostMatchesAstEverywhere(
      [](BoundaryMode mode) { return ops::BilateralSource(1, mode); },
      {{"sigma_d", 1}, {"sigma_r", 5}});
}

TEST(HostExecTest, InputTimesMaskOrderMatchesAst) {
  ExpectHostMatchesAstEverywhere([](BoundaryMode mode) {
    return Conv3Body("input_times_mask", R"(
      float sum = 0.0f;
      for (int yf = -1; yf <= 1; yf++) {
        for (int xf = -1; xf <= 1; xf++) {
          sum += Input(xf, yf) * M(xf, yf);
        }
      }
      output() = sum;
    )",
                     mode);
  });
}

TEST(HostExecTest, DivergentBranchMatchesAst) {
  // Data-dependent if/else inside a loop: lanes of one chunk take both
  // sides, so the predicated (non-slot-0) lane loops must honour the masks.
  ExpectHostMatchesAstEverywhere([](BoundaryMode mode) {
    return Conv3Body("divergent", R"(
      float sum = 0.0f;
      for (int xf = -1; xf <= 1; xf++) {
        float v = Input(xf, 0);
        if (v > 0.5f) {
          sum += M(xf, 1) * Input(xf, -1);
        } else {
          sum = sum - v * 0.25f;
        }
      }
      output() = sum;
    )",
                     mode);
  });
}

/// The DSL names the product `t`, so the compiler copies it out of the
/// multiply's temporary before accumulating, and no tap pattern forms.
/// This patch writes the product straight into `t` and accumulates from
/// there: the program computes the same values, but the product register is
/// read again after the accumulate, so lowering must not fuse the tap.
void AccumulateNamedProduct(sim::ProgramSet* ps) {
  for (sim::Program& prog : ps->programs) {
    std::vector<sim::Insn>& code = prog.code;
    bool patched = false;
    for (std::size_t pc = 1; !patched && pc + 1 < code.size(); ++pc) {
      sim::Insn& mul = code[pc - 1];
      const sim::Insn& copy = code[pc];
      sim::Insn& add = code[pc + 1];
      if (mul.op == sim::Op::kBinary && copy.op == sim::Op::kCopy &&
          copy.a == mul.dst && add.op == sim::Op::kAssign &&
          add.a == copy.dst) {
        mul.dst = copy.dst;
        code.erase(code.begin() + static_cast<std::ptrdiff_t>(pc));
        patched = true;
      }
    }
    if (!patched) ADD_FAILURE() << "no copied product in a region program";
  }
}

TEST(HostExecTest, TapProductReadAfterAccumulateMatchesAst) {
  ExpectHostMatchesAstEverywhere(
      [](BoundaryMode mode) {
        return Conv3Body("tap_reread", R"(
          float sum = 0.0f;
          float t = M(1, 1) * Input(0, 0);
          sum += t;
          sum += M(0, 0) * Input(-1, -1);
          output() = sum + t;
        )",
                         mode);
      },
      {}, AccumulateNamedProduct);
}

/// Breaks one binding of a 3x3 Gaussian launch with `tamper`, then runs it
/// through RunOnHost and through Simulator::Execute: both must fail with
/// Invalid and the same text (containing `what`), and leave every output
/// pixel untouched.
void ExpectHostFailsLikeSimulator(void (*tamper)(sim::Launch*),
                                  const std::string& what) {
  constexpr int kW = 64, kH = 32;
  compiler::CompileOptions options;
  options.image_width = kW;
  options.image_height = kH;
  const Result<compiler::CompiledKernel> compiled = compiler::Compile(
      ops::GaussianSource(3, 0.8f, BoundaryMode::kClamp), options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const compiler::CompiledKernel& ck = compiled.value();
  ASSERT_NE(ck.bytecode, nullptr);
  dsl::Image<float> input(kW, kH);
  input.CopyFrom(MakeNoiseImage(kW, kH, 7));

  auto run = [&](bool host) {
    dsl::Image<float> out(kW, kH);
    out.CopyFrom(HostImage<float>(kW, kH, kUnwritten));
    runtime::BindingSet bindings;
    bindings.Input("Input", input).Output(out);
    Result<runtime::LaunchHolder> holder =
        runtime::BuildLaunch(ck.device_ir, ck.config.config, bindings);
    EXPECT_TRUE(holder.ok()) << holder.status().ToString();
    if (!holder.ok()) return holder.status();
    sim::Launch& launch = holder.value().launch;
    launch.programs = ck.bytecode.get();
    tamper(&launch);
    const Status status =
        host ? runtime::RunOnHost(launch, ck.device_ir.bh_window.half_x,
                                  ck.device_ir.bh_window.half_y)
             : sim::Simulator(options.device).Execute(launch).status();
    EXPECT_TRUE(Untouched(out)) << (host ? "host" : "simulator")
                                << " wrote output before failing";
    return status;
  };
  const Status simulated = run(/*host=*/false);
  const Status host = run(/*host=*/true);
  EXPECT_EQ(simulated.code(), StatusCode::kInvalidArgument)
      << simulated.ToString();
  EXPECT_EQ(host.ToString(), simulated.ToString());
  EXPECT_NE(host.message().find(what), std::string::npos) << host.ToString();
}

TEST(HostExecTest, ReadOnlyOutputFailsLikeSimulator) {
  ExpectHostFailsLikeSimulator(
      [](sim::Launch* launch) {
        for (sim::BufferBinding& buf : launch->buffers)
          if (buf.name == "_out") buf.writable = false;
      },
      "write to unbound or read-only buffer _out");
}

TEST(HostExecTest, UnboundConstantMaskFailsLikeSimulator) {
  ExpectHostFailsLikeSimulator(
      [](sim::Launch* launch) {
        ASSERT_FALSE(launch->const_masks.empty());
        launch->const_masks.erase(launch->const_masks.begin());
      },
      "constant mask not bound");
}

}  // namespace
}  // namespace hipacc
