#!/usr/bin/env python3
"""Regression tests for tools/dplint: every rule must fire on a known-bad
fixture and stay silent on the equivalent clean code. Run directly or via
ctest (test name: dplint_selftest)."""

import importlib.util
import os
import sys
import unittest

_TOOLS = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_loader("dplint", loader=None)
dplint = importlib.util.module_from_spec(_spec)
with open(os.path.join(_TOOLS, "dplint"), encoding="utf-8") as fh:
    exec(compile(fh.read(), "dplint", "exec"), dplint.__dict__)


def rules(rel, source):
    return [f.rule for f in dplint.lint_file(rel, source)]


class StripTest(unittest.TestCase):
    def test_strips_comments_and_strings_preserving_lines(self):
        src = 'int a; // malloc(\n/* assert( */ const char* s = "new [] x";\n'
        out = dplint.strip_comments_and_strings(src)
        self.assertEqual(out.count("\n"), src.count("\n"))
        self.assertNotIn("malloc", out)
        self.assertNotIn("assert", out)
        self.assertNotIn("new []", out)

    def test_raw_string_literal(self):
        src = 'auto s = R"(malloc( assert( ))";\nint x;\n'
        out = dplint.strip_comments_and_strings(src)
        self.assertNotIn("malloc", out)
        self.assertIn("int x;", out)


class RuleTest(unittest.TestCase):
    def test_raw_alloc_fires(self):
        self.assertIn("raw-alloc", rules("src/md/foo.cpp", "int* p = new int[4];\n"))
        self.assertIn("raw-alloc", rules("src/md/foo.cpp", "void* p = malloc(8);\n"))
        self.assertIn("raw-alloc", rules("src/md/foo.cpp", "p = std::realloc(p, 16);\n"))
        self.assertIn("raw-alloc", rules("bench/foo.cpp", "std::free(p);\n"))

    def test_raw_alloc_allows_aligned_hpp_and_clean_code(self):
        self.assertEqual([], rules("src/common/aligned.hpp", "void* p = std::aligned_alloc(64, n);\n"))
        self.assertEqual([], rules("src/md/foo.cpp", "auto v = std::make_unique<int[]>(4);\n"))
        # Comments and identifiers containing the words don't count.
        self.assertEqual([], rules("src/md/foo.cpp", "// malloc( is banned\nint my_malloc_count(int);\n"))
        self.assertEqual([], rules("src/md/foo.cpp", "x.free();\n"))

    def test_hot_path_map_scoped_to_hot_dirs(self):
        bad = "#include <unordered_map>\nstd::unordered_map<int,int> m;\n"
        self.assertIn("hot-path-map", rules("src/fused/foo.cpp", bad))
        self.assertIn("hot-path-map", rules("src/tab/foo.hpp", bad))
        self.assertIn("hot-path-map", rules("src/md/neighbor.cpp", bad))
        self.assertNotIn("hot-path-map", rules("src/md/checkpoint.cpp", bad))
        self.assertNotIn("hot-path-map", rules("src/perf/foo.cpp", bad))

    def test_bare_assert_src_only(self):
        self.assertIn("bare-assert", rules("src/md/foo.cpp", "assert(x > 0);\n"))
        self.assertIn("bare-assert", rules("src/md/foo.cpp", "#include <cassert>\n"))
        self.assertNotIn("bare-assert", rules("tests/md/foo.cpp", "assert(x > 0);\n"))
        self.assertEqual([], rules("src/md/foo.cpp", "static_assert(sizeof(int) == 4);\n"))
        self.assertEqual([], rules("src/md/foo.cpp", "DP_CHECK(x > 0);\n"))

    def test_include_hygiene(self):
        use = "void f(dp::par::Communicator& c);\n"
        self.assertIn("include-hygiene", rules("src/md/foo.hpp", use))
        ok = '#include "parallel/minimpi.hpp"\n' + use
        self.assertNotIn("include-hygiene", rules("src/md/foo.hpp", ok))
        tensor_use = "nn::Tensor t;\n"
        self.assertIn("include-hygiene", rules("src/dp/foo.cpp", tensor_use))
        tensor_ok = '#include "nn/tensor.hpp"\n' + tensor_use
        self.assertNotIn("include-hygiene", rules("src/dp/foo.cpp", tensor_ok))
        # The headers themselves are exempt.
        self.assertNotIn("include-hygiene",
                         rules("src/parallel/minimpi.hpp", "class Communicator {};\n"))

    def test_blocking_p2p_scoped_to_step_driver(self):
        self.assertIn("blocking-p2p",
                      rules("src/parallel/distributed_md.cpp", "comm.send(1, 0, p, n);\n"))
        self.assertIn("blocking-p2p",
                      rules("src/parallel/distributed_md.cpp", "comm.send_vec(1, 0, v);\n"))
        self.assertIn("blocking-p2p",
                      rules("src/parallel/distributed_md.cpp",
                            "auto v = comm.recv_vec<double>(1, 0);\n"))
        # The nonblocking API is the point of the rule — it must not fire.
        ok = ("auto r = comm.isend_vec(1, 0, v);\n"
              "auto q = comm.irecv(1, 0);\n")
        self.assertNotIn("blocking-p2p", rules("src/parallel/distributed_md.cpp", ok))
        # Other files (halo.cpp's structural exchange, collectives) are free
        # to use the blocking calls.
        self.assertNotIn("blocking-p2p",
                         rules("src/parallel/halo.cpp", "comm.send_vec(1, 0, v);\n"))

    def test_transport_syscalls_confined_to_backends(self):
        self.assertIn("transport-syscalls",
                      rules("src/md/foo.cpp",
                            "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n"))
        self.assertIn("transport-syscalls",
                      rules("tests/parallel/foo.cpp",
                            "int fd = shm_open(name, O_RDWR, 0600);\n"))
        self.assertIn("transport-syscalls",
                      rules("bench/foo.cpp", "shm_unlink(name);\n"))
        # The two backend translation units own these syscalls.
        self.assertNotIn("transport-syscalls",
                         rules("src/parallel/transport_shm.cpp",
                               "int fd = shm_open(name, O_RDWR, 0600);\n"))
        self.assertNotIn("transport-syscalls",
                         rules("src/parallel/transport_tcp.cpp",
                               "int fd = ::socket(AF_INET, SOCK_STREAM, 0);\n"))
        # \b guards identifiers that merely end in the name, comments are
        # stripped before matching, and connect() is deliberately not matched.
        self.assertNotIn("transport-syscalls",
                         rules("src/md/foo.cpp", "my_socket(1);\n"))
        self.assertNotIn("transport-syscalls",
                         rules("src/md/foo.cpp", "// socket(2) is banned here\n"))
        self.assertNotIn("transport-syscalls",
                         rules("src/md/foo.cpp", "connect(fd, addr, len);\n"))

    def test_neighbor_workspace(self):
        bad = ("void NeighborList::build(const Box& box) {\n"
               "  std::vector<int> scratch(n);\n"
               "}\n")
        self.assertIn("neighbor-workspace", rules("src/md/neighbor.cpp", bad))
        nested = ("void NeighborList::build_half(const Box& box) {\n"
                  "  std::vector<std::vector<int>> caches;\n"
                  "}\n")
        self.assertIn("neighbor-workspace", rules("src/md/neighbor.cpp", nested))
        # References into the persistent workspace (including lambda
        # parameters) are the sanctioned pattern.
        ok = ("void NeighborList::build_brute(const Box& box) {\n"
              "  std::vector<int>& buf = ws_.tl[t];\n"
              "  fill([&](std::size_t i, std::vector<int>& out) { out.clear(); });\n"
              "}\n")
        self.assertNotIn("neighbor-workspace", rules("src/md/neighbor.cpp", ok))
        # Non-build members and other files keep their locals.
        compact = ("NeighborList NeighborList::compact() const {\n"
                   "  std::vector<int> remap(n, -1);\n"
                   "}\n")
        self.assertNotIn("neighbor-workspace", rules("src/md/neighbor.cpp", compact))
        self.assertNotIn("neighbor-workspace",
                         rules("src/md/lattice.cpp",
                               "void f() { std::vector<int> v; }\n"))
        # A declaration without a body (header-style) must not confuse the
        # body scanner into scanning the rest of the file.
        decl = ("void NeighborList::build(const Box& box);\n"
                "void elsewhere() { std::vector<int> v; }\n")
        self.assertNotIn("neighbor-workspace", rules("src/md/neighbor.cpp", decl))

    def test_env_hot_alloc(self):
        # Per-call sizing inside the compact env build.
        bad_resize = ("void build_compact(const ModelConfig& cfg) {\n"
                      "  ws.slot_atom.resize(total);\n"
                      "}\n")
        self.assertIn("env-hot-alloc", rules("src/dp/env_mat.cpp", bad_resize))
        bad_assign = ("void build_env_mat(const ModelConfig& cfg) {\n"
                      "  env.rmat.assign(rows * 4, 0.0);\n"
                      "}\n")
        self.assertIn("env-hot-alloc", rules("src/dp/env_mat.cpp", bad_assign))
        # Container construction inside a model's per-step compute().
        bad_vec = ("md::ForceResult FusedDP::compute(const md::Box& box) {\n"
                   "  std::vector<double> g(n);\n"
                   "}\n")
        self.assertIn("env-hot-alloc", rules("src/fused/fused_model.cpp", bad_vec))
        bad_aligned = ("md::ForceResult BaselineDP::compute(const md::Box& box) {\n"
                       "  AlignedVector<double> row(m * 4);\n"
                       "}\n")
        self.assertIn("env-hot-alloc", rules("src/dp/baseline_model.cpp", bad_aligned))
        # The fused paths' shared compute() body, and not its prepare().
        bad_run = ("  md::ForceResult run(const md::Box& box, bool periodic) {\n"
                   "    atom_energy_.resize(n);\n"
                   "  }\n")
        self.assertIn("env-hot-alloc", rules("src/fused/skeleton.hpp", bad_run))
        ok_prepare_run = ("  void prepare(std::size_t n) { atom_energy_.resize(n); }\n"
                          "  md::ForceResult run(const md::Box& box) {\n"
                          "    BuildTeam::team().run(T, BodyRef(body));\n"
                          "  }\n")
        self.assertNotIn("env-hot-alloc", rules("src/fused/skeleton.hpp", ok_prepare_run))
        # References into the persistent workspace are the sanctioned pattern.
        ok_ref = ("md::ForceResult FusedDP::compute(const md::Box& box) {\n"
                  "  AlignedVector<double>& g = ws_.g_rmat;\n"
                  "  std::vector<dp::Vec3>& f = scratch_.forces;\n"
                  "}\n")
        self.assertNotIn("env-hot-alloc", rules("src/fused/fused_model.cpp", ok_ref))
        # Sizing belongs in the workspace helpers, which stay unrestricted.
        ok_prepare = ("void EnvMatWorkspace::prepare(std::size_t n) {\n"
                      "  counts.resize(n);\n"
                      "  std::vector<int> fresh(n);\n"
                      "}\n")
        self.assertNotIn("env-hot-alloc", rules("src/dp/env_mat.cpp", ok_prepare))
        # A call to build_compact inside build_env_mat is a call site, not a
        # body — the scanner must not leak into the enclosing function.
        ok_call = ("void build_env_mat(const ModelConfig& cfg) {\n"
                   "  build_compact(cfg, ws);\n"
                   "}\n"
                   "void helper() { std::vector<int> v(n); }\n")
        self.assertNotIn("env-hot-alloc", rules("src/dp/env_mat.cpp", ok_call))
        # Files outside the spec table keep their locals.
        self.assertNotIn("env-hot-alloc",
                         rules("src/md/lattice.cpp",
                               "void compute() { std::vector<int> v(n); }\n"))

    def test_env_hot_alloc_fitting_net(self):
        # The fitting net's block bodies run per block of atoms every step.
        bad_resize = ("void FittingNet::forward_block(const double* d, std::size_t rows,\n"
                      "                               Workspace& ws, double* e) const {\n"
                      "  ws.outs[0].resize(rows);\n"
                      "}\n")
        self.assertIn("env-hot-alloc", rules("src/nn/fitting_net.cpp", bad_resize))
        bad_backward = ("void FittingNet::backward(const Workspace& ws, double* g) const {\n"
                        "  ws.grad_a.assign(ws.rows, 1.0);\n"
                        "}\n")
        self.assertIn("env-hot-alloc", rules("src/nn/fitting_net.cpp", bad_backward))
        bad_vec = ("void DenseLayer::backward_rows(const double* g_out) const {\n"
                   "  AlignedVector<double> g_u(out_);\n"
                   "}\n")
        self.assertIn("env-hot-alloc", rules("src/nn/dense_layer.cpp", bad_vec))
        # Sizing in the workspace helper, and the non-hot jet, stay free.
        ok_ensure = ("void FittingNet::ensure_workspace(Workspace& ws, std::size_t n) const {\n"
                     "  ws.grad_a.resize(n);\n"
                     "}\n")
        self.assertNotIn("env-hot-alloc", rules("src/nn/fitting_net.cpp", ok_ensure))
        ok_jet = ("void DenseLayer::forward_jet(const double* x) const {\n"
                  "  AlignedVector<double> u(out_);\n"
                  "}\n")
        self.assertNotIn("env-hot-alloc", rules("src/nn/dense_layer.cpp", ok_jet))

    def test_raw_intrinsics(self):
        # Calls, types and the intrinsic headers all fire outside the wrapper.
        self.assertIn("raw-intrinsics",
                      rules("src/tab/table.cpp", "__m256d y = _mm256_loadu_pd(p);\n"))
        self.assertIn("raw-intrinsics",
                      rules("src/common/tanh_table.cpp", "#include <immintrin.h>\n"))
        self.assertIn("raw-intrinsics",
                      rules("src/dp/prod_force.cpp", "__mmask8 k = 0xff;\n"))
        self.assertIn("raw-intrinsics",
                      rules("bench/tanh_tabulation.cpp", "x = _mm_sfence();\n"))
        # The wrapper header is the sanctioned home for all of the above.
        ok = ("#include <immintrin.h>\n"
              "__m512d v8_loadu(const double* p) { return _mm512_loadu_pd(p); }\n")
        self.assertNotIn("raw-intrinsics", rules("src/common/simd.hpp", ok))
        # Wrapper-level code elsewhere stays clean.
        self.assertNotIn("raw-intrinsics",
                         rules("src/tab/table.cpp",
                               "simd::v4d y = simd::v4_fmadd(a, b, c);\n"))

    def test_raw_intrinsics_float_lane(self):
        # The float-lane surface fires exactly like the double one: bare
        # float vector types, _ps intrinsics, fp16 vectors and _ph/cvtph
        # intrinsics, and the wide mask type.
        self.assertIn("raw-intrinsics",
                      rules("src/tab/table.cpp", "__m256 y = _mm256_loadu_ps(p);\n"))
        self.assertIn("raw-intrinsics",
                      rules("src/fused/mixed_model.cpp", "__m512 v;\n"))
        self.assertIn("raw-intrinsics",
                      rules("src/tab/table.cpp", "x = _mm512_fmadd_ps(a, b, c);\n"))
        self.assertIn("raw-intrinsics",
                      rules("src/tab/table.cpp", "__m256h hvec;\n"))
        self.assertIn("raw-intrinsics",
                      rules("src/tab/table.cpp",
                            "auto w = _mm256_cvtph_ps(_mm_loadu_si128(p));\n"))
        self.assertIn("raw-intrinsics",
                      rules("src/fused/mixed_model.cpp", "__mmask16 k = 0xffff;\n"))
        # The float wrappers are the sanctioned spelling outside simd.hpp.
        self.assertNotIn("raw-intrinsics",
                         rules("src/tab/table.cpp",
                               "simd::f16 y = simd::f16_fmadd(a, b, c);\n"))
        ok = ("#include <immintrin.h>\n"
              "__m512 f16_loadu(const float* p) { return _mm512_loadu_ps(p); }\n")
        self.assertNotIn("raw-intrinsics", rules("src/common/simd.hpp", ok))

    def test_hot_pragma_simd(self):
        # A pragma in a dispatched hot-loop file means the loop slipped off
        # the dispatcher.
        bad = ("void rank1_update(const double* r, double* a, std::size_t m) {\n"
               "#pragma omp simd\n"
               "  for (std::size_t b = 0; b < m; ++b) a[b] += r[0];\n"
               "}\n")
        for rel in ("src/fused/fused_model.cpp", "src/fused/mixed_model.cpp",
                    "src/fused/skeleton.hpp", "src/dp/descriptor.cpp",
                    "src/dp/prod_force.cpp", "src/nn/gemm.cpp",
                    "src/tab/table.cpp", "src/common/simd_kernels.inc",
                    "src/nn/gemm_kernels.inc"):
            self.assertIn("hot-pragma-simd", rules(rel, bad), msg=rel)
        # The GEMM kernels dispatch through gemm_kernels.inc: a pragma'd
        # loop back in gemm.cpp is a kernel slipping off the dispatcher.
        gemm_loop = ("void gemm_tn_acc(const double* a, double* c, std::size_t n) {\n"
                     "#pragma omp simd\n"
                     "  for (std::size_t j = 0; j < n; ++j) c[j] += a[j];\n"
                     "}\n")
        self.assertIn("hot-pragma-simd", rules("src/nn/gemm.cpp", gemm_loop))
        # Level::Scalar is the width-1 body: a *_scalar seed body no longer
        # earns an exemption.
        seed = ("void rank1_update_scalar(const double* r, double* a, std::size_t m) {\n"
                "#pragma omp simd reduction(+ : acc)\n"
                "  for (std::size_t b = 0; b < m; ++b) acc += r[b];\n"
                "}\n")
        self.assertIn("hot-pragma-simd", rules("src/fused/fused_model.cpp", seed))
        # Other pragmas and other files stay out of scope.
        other_pragma = "#pragma omp parallel for\nvoid f();\n"
        self.assertNotIn("hot-pragma-simd",
                         rules("src/fused/fused_model.cpp", other_pragma))
        self.assertNotIn("hot-pragma-simd", rules("src/fused/se_r_model.cpp", bad))

    def test_raw_fma(self):
        # Kernel bodies spell every fma through the lane traits.
        bad = "for (; b < m; ++b) y = std::fma(a[b], x, y);\n"
        for rel in ("src/common/simd_kernels.inc", "src/nn/gemm_kernels.inc",
                    "src/tab/new_kernels.inc"):
            self.assertIn("raw-fma", rules(rel, bad), msg=rel)
        self.assertIn("raw-fma", rules("src/nn/gemm_kernels.inc", "s = fma(a, b, s);\n"))
        self.assertIn("raw-fma",
                      rules("src/nn/gemm_kernels.inc", "s = __builtin_fma(a, b, s);\n"))
        # The traits are the sanctioned spelling, and simd.hpp defines them
        # with std::fma.
        self.assertNotIn("raw-fma",
                         rules("src/common/simd_kernels.inc", "y = S::fmadd(a[b], x, y);\n"))
        self.assertNotIn("raw-fma",
                         rules("src/common/simd.hpp",
                               "static V fmadd(V a, V b, V c) { return std::fma(a, b, c); }\n"))
        # Other files and comments stay out of scope.
        self.assertNotIn("raw-fma", rules("src/dp/env_mat.cpp", bad))
        self.assertNotIn("raw-fma", rules("tests/common/foo_kernels.inc", bad))
        self.assertNotIn("raw-fma",
                         rules("src/common/simd_kernels.inc", "// tails run std::fma( too\n"))

    def test_narrowing_cast(self):
        self.assertIn("narrowing-cast", rules("src/md/neighbor.cpp", "int j = (int)a;\n"))
        self.assertIn("narrowing-cast", rules("src/md/neighbor.hpp", "x = (unsigned)n;\n"))
        self.assertIn("narrowing-cast",
                      rules("src/md/neighbor.cpp", "y = (long long)(a * b);\n"))
        self.assertNotIn("narrowing-cast",
                         rules("src/md/neighbor.cpp", "auto j = static_cast<int>(a);\n"))
        self.assertNotIn("narrowing-cast",
                         rules("src/md/neighbor.cpp", "auto b = n * sizeof(int);\n"))
        self.assertNotIn("narrowing-cast", rules("src/md/neighbor.cpp", "void f(int);\n"))
        # Other files are outside the rule's scope.
        self.assertNotIn("narrowing-cast", rules("src/md/lattice.cpp", "int j = (int)a;\n"))

    def test_signal_safety(self):
        # Each class of hazard fires inside a marked body.
        for body, label in (
            ("char b[64]; snprintf(b, sizeof(b), \"%d\", sig);", "stdio"),
            ("std::string s = path;", "std::string"),
            ("std::lock_guard<std::mutex> g(mu_);", "lock"),
            ("int* p = new int[4];", "new"),
            ("free(p);", "free"),
            ("throw Error(\"boom\");", "throw"),
            ("std::cerr << sig;", "iostream"),
        ):
            src = f"DP_SIGNAL_SAFE void on_crash(int sig) noexcept {{ {body} }}\n"
            self.assertIn("signal-safety", rules("src/obs/foo.cpp", src),
                          msg=f"should fire on {label}")
        # The sanctioned vocabulary stays silent: raw fds + stack buffers.
        ok = ("DP_SIGNAL_SAFE void dump(int fd) noexcept {\n"
              "  char buf[64];\n"
              "  std::memcpy(buf, src, n);\n"
              "  ::write(fd, buf, n);\n"
              "  ::fsync(fd);\n"
              "  ::close(::open(path, 0));\n"
              "  ::raise(sig);\n"
              "}\n")
        self.assertEqual([], rules("src/obs/foo.cpp", ok))
        # A declaration has no body to scan; the macro definition line is
        # preprocessor, not a marker; unmarked functions are unrestricted.
        decl = ("#define DP_SIGNAL_SAFE\n"
                "DP_SIGNAL_SAFE void dump(int fd) const;\n"
                "void logger() { printf(\"%d\", 1); std::string s; }\n")
        self.assertNotIn("signal-safety", rules("src/obs/foo.hpp", decl))
        # A marked body followed by an unmarked allocating function: the
        # scanner must stop at the closing brace.
        bounded = ("DP_SIGNAL_SAFE void dump(int fd) noexcept { ::write(fd, b, n); }\n"
                   "void setup() { std::vector<int> v(8); }\n")
        self.assertNotIn("signal-safety", rules("src/obs/foo.cpp", bounded))

    def test_lock_annotations(self):
        # Raw primitives are banned anywhere in src/.
        self.assertIn("lock-annotations", rules("src/md/foo.hpp", "std::mutex mu_;\n"))
        self.assertIn("lock-annotations",
                      rules("src/obs/foo.cpp", "std::condition_variable cv_;\n"))
        self.assertIn("lock-annotations",
                      rules("src/md/foo.cpp", "std::lock_guard lock(mu_);\n"))
        self.assertIn("lock-annotations",
                      rules("src/md/foo.cpp", "std::unique_lock<std::mutex> lk(mu_);\n"))
        self.assertIn("lock-annotations", rules("src/md/foo.hpp", "std::shared_mutex rw_;\n"))
        # The wrapper header is the one sanctioned home of the raw types;
        # outside src/ (tests, bench) the rule does not apply.
        self.assertNotIn("lock-annotations",
                         rules("src/common/thread_annotations.hpp", "std::mutex mu_;\n"))
        self.assertNotIn("lock-annotations", rules("tests/md/foo.cpp", "std::mutex mu_;\n"))
        # A class with a dp::Mutex member must annotate what it guards.
        bad = ("class Registry {\n"
               "  Mutex mu_;\n"
               "  int count_ = 0;\n"
               "};\n")
        self.assertIn("lock-annotations", rules("src/obs/foo.hpp", bad))
        ok = ("class Registry {\n"
              "  Mutex mu_;\n"
              "  int count_ DP_GUARDED_BY(mu_) = 0;\n"
              "};\n")
        self.assertEqual([], rules("src/obs/foo.hpp", ok))
        # MutexLock locals are not Mutex members (no whitespace after the
        # type name); forward declarations have no body to scan.
        uses = ("class Walker {\n"
                " public:\n"
                "  void walk() { MutexLock lock(mu_); ++n_; }\n"
                " private:\n"
                "  Mutex mu_;\n"
                "  long n_ DP_GUARDED_BY(mu_) = 0;\n"
                "};\n"
                "class Later;\n")
        self.assertEqual([], rules("src/common/foo.hpp", uses))

    def test_signal_safety_covers_dp_wrappers(self):
        # The capability-aware wrappers are still locks: banned in
        # DP_SIGNAL_SAFE bodies exactly like the std:: primitives they wrap.
        src = ("DP_SIGNAL_SAFE void on_crash(int sig) noexcept "
               "{ MutexLock lock(g_mu); }\n")
        self.assertIn("signal-safety", rules("src/obs/foo.cpp", src))
        cv = ("DP_SIGNAL_SAFE void on_crash(int sig) noexcept "
              "{ g_cv.notify_all(); CondVar* c = &g_cv; }\n")
        self.assertIn("signal-safety", rules("src/obs/foo.cpp", cv))


class TreeTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        root = os.path.dirname(_TOOLS)
        findings = []
        for rel in dplint.collect_files(root, []):
            with open(os.path.join(root, rel), encoding="utf-8", errors="replace") as fh:
                findings.extend(dplint.lint_file(rel.replace(os.sep, "/"), fh.read()))
        self.assertEqual([], [str(f) for f in findings])


if __name__ == "__main__":
    sys.exit(unittest.main())
