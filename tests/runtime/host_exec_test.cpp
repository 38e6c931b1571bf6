// Host bytecode executor (runtime/host_exec.hpp): RunOnHost must write the
// same bits as an AST-engine simulator launch of the same compiled kernel.
// Extents are chosen so segments fill whole 256-lane chunks, partial
// chunks, or both; every boundary mode runs. The kernels cover fusable
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
};

constexpr Extent kExtents[] = {
    {7, 5}, {255, 3}, {256, 64}, {257, 130}, {513, 17}};

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
/// `inputs`), and expects bitwise-equal outputs. Images too small for the
/// nine boundary regions of the chosen launch configuration, which the
/// simulator rejects, are compiled again with uniform guards (one program
/// for the whole image).
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
    const Status ast = run(want, /*host=*/false);
    if (!ast.ok() && border == codegen::BorderPolicy::kRegions &&
        ast.message().find("boundary regions would overlap") !=
            std::string::npos)
      continue;
    ASSERT_TRUE(ast.ok()) << ast.ToString();
    const Status host = run(got, /*host=*/true);
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

}  // namespace
}  // namespace hipacc
