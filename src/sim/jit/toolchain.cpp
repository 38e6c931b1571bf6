#include "sim/jit/toolchain.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#include "support/string_utils.hpp"

#ifndef HIPACC_JIT_CXX_DEFAULT
#define HIPACC_JIT_CXX_DEFAULT ""
#endif

namespace hipacc::sim::jit {
namespace {

// Flags: -ffp-contract=off forbids FMA contraction so every emitted
// arithmetic statement rounds exactly like the VM's separately compiled
// handlers; the rest matches the simulator's own build enough for identical
// libm/SSE semantics. HIPACC_JIT_CXXFLAGS replaces the optimisation flags
// (everything but the mandatory -fPIC -shared -std -ffp-contract tail) for
// experiments; bit-exactness only survives flags that keep IEEE semantics.
constexpr const char kMandatoryFlags[] =
    "-fPIC -shared -std=c++17 -ffp-contract=off";

std::string Flags() {
  const char* opt = std::getenv("HIPACC_JIT_CXXFLAGS");
  return std::string(opt && opt[0] ? opt : "-O2") + " " + kMandatoryFlags;
}

std::string& OverrideSlot() {
  static std::string value;
  return value;
}
bool& OverrideActive() {
  static bool active = false;
  return active;
}
std::mutex& OverrideMutex() {
  static std::mutex mu;
  return mu;
}

bool Runnable(const std::string& compiler) {
  if (compiler.empty()) return false;
  // `--version` probes both existence and executability without touching
  // the filesystem layout assumptions of any particular compiler.
  const std::string cmd =
      "\"" + compiler + "\" --version > /dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

/// Discovers the compiler once per distinct override state. Not cached
/// across override changes so tests can flip between real / missing /
/// broken toolchains.
std::string DetectCompiler() {
  {
    const std::lock_guard<std::mutex> lock(OverrideMutex());
    if (OverrideActive()) return OverrideSlot();
  }
  if (const char* env = std::getenv("HIPACC_JIT_DISABLE"))
    if (env[0] && env[0] != '0') return "";
  if (const char* env = std::getenv("HIPACC_JIT_CXX"))
    if (env[0]) return env;
  static const std::string detected = [] {
    const std::string baked = HIPACC_JIT_CXX_DEFAULT;
    if (Runnable(baked)) return baked;
    for (const char* candidate : {"c++", "g++", "clang++"})
      if (Runnable(candidate)) return std::string(candidate);
    return std::string();
  }();
  return detected;
}

/// A fresh private directory under the platform's temp directory
/// (std::filesystem::temp_directory_path, which honours $TMPDIR), removed
/// with everything in it when the workspace goes out of scope. A dlopened
/// object stays mapped after its file is gone.
class Workspace {
 public:
  Workspace() {
    std::error_code ec;
    std::string dir = (std::filesystem::temp_directory_path(ec) /
                       "hipacc_jit_XXXXXX")
                          .string();
    if (!ec && mkdtemp(dir.data()) != nullptr) dir_ = std::move(dir);
  }
  ~Workspace() {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Ok when the directory exists.
  Status status() const {
    return dir_.empty() ? Status::Internal(
                              "cannot create a jit workspace in the temp "
                              "directory")
                        : Status::Ok();
  }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

}  // namespace

NativeModule::~NativeModule() {
  if (handle_) dlclose(handle_);
}

void* NativeModule::Sym(const char* name) const {
  return handle_ ? dlsym(handle_, name) : nullptr;
}

std::string ToolchainIdentity() {
  return DetectCompiler() + " " + Flags();
}

bool ToolchainAvailable() { return !DetectCompiler().empty(); }

Result<std::shared_ptr<NativeModule>> CompileSharedObject(
    const std::string& source, const std::string& tag,
    std::string* so_bytes_out) {
  const std::string compiler = DetectCompiler();
  if (compiler.empty())
    return Status::Unimplemented("no host toolchain for the native tier");

  const Workspace ws;
  HIPACC_RETURN_IF_ERROR(ws.status());
  const std::string cpp = ws.Path(tag + ".cpp");
  const std::string so = ws.Path(tag + ".so");
  const std::string log = ws.Path(tag + ".log");
  {
    std::ofstream out(cpp);
    out << source;
    if (!out.good())
      return Status::Internal("failed to write jit source " + cpp);
  }

  const std::string cmd = "\"" + compiler + "\" " + Flags() + " -o \"" + so +
                          "\" \"" + cpp + "\" > \"" + log + "\" 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc != 0) {
    std::ifstream in(log);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string diag = ss.str();
    if (diag.size() > 2000) diag.resize(2000);
    return Status::Internal(
        StrFormat("jit compile failed (rc=%d) with %s: %s", rc,
                           compiler.c_str(), diag.c_str()));
  }

  if (so_bytes_out != nullptr) {
    std::ifstream in(so, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    *so_bytes_out = ss.str();
  }

  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) {
    const char* err = dlerror();
    return Status::Internal(std::string("dlopen failed: ") +
                            (err ? err : "unknown"));
  }
  return std::make_shared<NativeModule>(handle);
}

Result<std::shared_ptr<NativeModule>> OpenSharedObjectBytes(
    const std::string& so_bytes, const std::string& tag) {
  const Workspace ws;
  HIPACC_RETURN_IF_ERROR(ws.status());
  const std::string so = ws.Path(tag + ".so");
  {
    std::ofstream out(so, std::ios::binary);
    out.write(so_bytes.data(),
              static_cast<std::streamsize>(so_bytes.size()));
    if (!out.good())
      return Status::Internal("failed to materialise cached jit object " + so);
  }
  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle) {
    const char* err = dlerror();
    return Status::Internal(std::string("dlopen of cached object failed: ") +
                            (err ? err : "unknown"));
  }
  return std::make_shared<NativeModule>(handle);
}

void SetToolchainOverrideForTesting(const char* compiler) {
  const std::lock_guard<std::mutex> lock(OverrideMutex());
  OverrideActive() = compiler != nullptr;
  OverrideSlot() = compiler ? compiler : "";
}

}  // namespace hipacc::sim::jit
