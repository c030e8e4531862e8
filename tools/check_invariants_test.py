#!/usr/bin/env python3
"""Self-test for tools/check_invariants.py.

Builds a miniature repo in a temp dir seeded with exactly one violation of
each rule, and asserts every violation is reported at its file:line — then
asserts the linter is clean on the real tree it ships in. Registered as the
ctest entry `tools.check_invariants_selftest` (tests/CMakeLists.txt), so a
rule that silently stops firing fails CI the same way a broken C++ test
would.
"""

import pathlib
import re
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_invariants  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Minimal CI workflow for the fixture: the sanitize job filters ctest
#: (asan-full-suite violation) and the TSan job builds exec_test but only
#: labels core_test (tsan-consistency, both directions) while the fixture's
#: concurrent suite conc_test is in neither (tsan-coverage).
FIXTURE_CI = """\
name: CI
jobs:
  sanitize:
    steps:
      - name: Test
        run: ctest --test-dir build -L '^(core_test)$'
  sanitize-thread:
    steps:
      - name: Build
        run: |
          cmake --build build -j2 \\
            --target exec_test
      - name: Test under TSan
        run: |
          ctest --test-dir build \\
            -L '^(core_test)$'
"""


def write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return relpath


class FixtureTreeTest(unittest.TestCase):
    """One seeded violation per rule, each asserted with its file:line."""

    @classmethod
    def setUpClass(cls):
        cls._tmp = tempfile.TemporaryDirectory(prefix="check_invariants_")
        root = pathlib.Path(cls._tmp.name)
        cls.root = root

        # framed-bytes: memcpy on line 2, reinterpret_cast on line 3 of a
        # serve file; a sockaddr cast that must NOT be flagged in net.
        write(root, "src/serve/bad_bytes.cc",
              "#include <cstring>\n"
              "void f(char* d, const char* s) { std::memcpy(d, s, 4); }\n"
              "int g(const char* p) { return *reinterpret_cast<const int*>(p); }\n")
        write(root, "src/net/sockets_ok.cc",
              "void h(const void* a) {\n"
              "  (void)reinterpret_cast<const sockaddr*>(a);\n"
              "}\n")

        # tmp-staging: a naked staging literal on line 1 (and none in the
        # allowlisted framing.cc, which the fixture does not even need).
        write(root, "src/core/bad_tmp.cc",
              'const char* kStaging = "out.grlm.tmp";\n')

        # test-registration: orphan_test.cc exists but is not registered;
        # conc_test.cc is registered but concurrent and outside the TSan leg.
        write(root, "tests/orphan_test.cc", "int main() { return 0; }\n")
        write(root, "tests/conc_test.cc",
              "#include \"exec/thread_pool.h\"\n"
              "// uses ThreadPool\nint main() { return 0; }\n")
        write(root, "tests/core_test.cc", "int main() { return 0; }\n")
        write(root, "tests/exec_test.cc", "int main() { return 0; }\n")
        write(root, "tests/CMakeLists.txt",
              "gralmatch_add_test(conc_test gralmatch::exec)\n"
              "gralmatch_add_test(core_test gralmatch::core)\n"
              "gralmatch_add_test(exec_test gralmatch::exec)\n")

        # obs-inertness: the checkpoint serializer naming the metrics layer
        # (include on line 1, symbol use on line 3); a comment mention on
        # line 2 that must NOT be flagged.
        write(root, "src/serve/checkpoint.cc",
              '#include "obs/metrics.h"\n'
              "// a MetricsRegistry mention in prose is fine\n"
              "void t(gralmatch::obs::MetricsRegistry* m) { (void)m; }\n")

        # module-dag: common including exec is an upward edge (line 1).
        write(root, "src/common/bad_dag.h",
              '#include "exec/thread_pool.h"\n')

        # raw-mutex: bare std::mutex outside common/mutex.h (line 2).
        write(root, "src/exec/bad_sync.h",
              "#include <mutex>\n"
              "struct S { std::mutex mu; };\n")

        # pair-decode: a hand-rolled pair read on lines 2 and 3; the same
        # reads inside the shared codec file must NOT be flagged.
        write(root, "src/stream/bad_pairs.cc",
              "Status f(BinaryReader* r, RecordPair* p, RecordPair q) {\n"
              "  GRALMATCH_RETURN_NOT_OK(r->ReadI32(&q.a));\n"
              "  return r->ReadI32(&p->b);\n"
              "}\n")
        write(root, "src/data/ground_truth.cc",
              "Status g(BinaryReader* r, RecordPair* p) {\n"
              "  return r->ReadI32(&p->a);\n"
              "}\n")

        # fp-contract: the shared compile options lack the flag (the call
        # starts on line 2; the mention in the line-1 comment must not
        # count), and a module turns contraction back on (line 2).
        write(root, "CMakeLists.txt",
              "# -ffp-contract=off is promised here\n"
              "target_compile_options(gralmatch_compile_options INTERFACE\n"
              "  -Wall -Wextra)\n")
        write(root, "src/nn/CMakeLists.txt",
              "add_library(gralmatch_nn matrix.cc)\n"
              "target_compile_options(gralmatch_nn PRIVATE -ffp-contract=fast)\n")

        write(root, ".github/workflows/ci.yml", FIXTURE_CI)

        # clock-bytes: a stopwatch reading (line 2) and a seconds total
        # whose call spans two lines (line 3) written as doubles; a
        # threshold and a comment naming seconds must NOT be flagged.
        write(root, "src/stream/bad_clock.cc",
              "void s(BinaryWriter* w, const Stopwatch& watch) {\n"
              "  w->WriteDouble(watch.ElapsedSeconds());\n"
              "  w->WriteDouble(\n"
              "      scoring_seconds_total_);\n"
              "  w->WriteDouble(config.match_threshold);  // not seconds\n"
              "}\n")

        # dead-surface: OnlyTestsCall (line 4) and Widget::TestOnly
        # (line 10) have callers only in tests/ — their definitions in
        # surface.cc must not count. IsValidIsin is allowlisted; an
        # example calls ExampleCalls and Widget::size; constructors are
        # never surface of their own.
        write(root, "src/text/surface.h",
              "#include <string_view>\n"
              "namespace gralmatch {\n"
              "\n"
              "int OnlyTestsCall(int x);\n"
              "bool IsValidIsin(std::string_view isin);\n"
              "Result<int> ExampleCalls(int x);\n"
              "class Widget {\n"
              " public:\n"
              "  explicit Widget(int n) : n_(n) {}\n"
              "  int TestOnly() const { return n_; }\n"
              "  int size() const { return n_; }\n"
              " private:\n"
              "  int n_;\n"
              "};\n"
              "}  // namespace gralmatch\n")
        write(root, "src/text/surface.cc",
              "namespace gralmatch {\n"
              "int OnlyTestsCall(int x) { return x + 1; }\n"
              "bool IsValidIsin(std::string_view isin) { return true; }\n"
              "Result<int> ExampleCalls(int x) { return x * 2; }\n"
              "}  // namespace gralmatch\n")
        write(root, "tests/surface_util.cc",
              "int f() { return OnlyTestsCall(1) + Widget(2).TestOnly() +\n"
              "                IsValidIsin(\"x\"); }\n")
        write(root, "examples/demo.cpp",
              "int main() {\n"
              "  Widget w(3);\n"
              "  return *ExampleCalls(w.size());\n"
              "}\n")

        # dead-surface, classes: implementations of the src/ interface
        # Scorer. TestOnlyScorer (line 6) is built only by a test, and
        # ObservedScorer (line 9) is only named through a pointer, a
        # `::` and a dynamic_cast in src/; a demo builds UsedScorer;
        # CascadeMatcher is allowlisted; a std::exception subclass has no
        # src/ base.
        write(root, "src/text/scorers.h",
              "namespace gralmatch {\n"
              "class Scorer {\n"
              " public:\n"
              "  virtual int Score() const = 0;\n"
              "};\n"
              "class TestOnlyScorer : public Scorer {\n"
              "  int Score() const override { return 1; }\n"
              "};\n"
              "class ObservedScorer final : public Scorer {\n"
              " public:\n"
              "  struct Stats { int hits; };\n"
              "  int Score() const override { return 2; }\n"
              "};\n"
              "class UsedScorer : public Scorer {\n"
              "  int Score() const override { return 3; }\n"
              "};\n"
              "class CascadeMatcher : public Scorer {\n"
              "  int Score() const override { return 4; }\n"
              "};\n"
              "class ParseError : public std::exception {};\n"
              "}  // namespace gralmatch\n")
        write(root, "src/text/observer.h",
              "namespace gralmatch {\n"
              "inline int Observe(const Scorer& s) {\n"
              "  const ObservedScorer* o =\n"
              "      dynamic_cast<const ObservedScorer*>(&s);\n"
              "  ObservedScorer::Stats stats{0};\n"
              "  return o == nullptr ? stats.hits : s.Score();\n"
              "}\n"
              "}  // namespace gralmatch\n")
        write(root, "examples/scorers.cpp",
              "int main() { return Observe(UsedScorer()); }\n")
        write(root, "tests/scorers_util.cc",
              "int g() { return TestOnlyScorer().Score(); }\n")

        cls.findings = check_invariants.run(root)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def assert_finding(self, location, rule):
        matches = [f for f in self.findings
                   if f.startswith(location + ":") and f"[{rule}]" in f]
        self.assertTrue(
            matches,
            f"expected a [{rule}] finding at {location}; got:\n" +
            "\n".join(self.findings))

    def test_framed_bytes_memcpy(self):
        self.assert_finding("src/serve/bad_bytes.cc:2", "framed-bytes")

    def test_framed_bytes_reinterpret_cast(self):
        self.assert_finding("src/serve/bad_bytes.cc:3", "framed-bytes")

    def test_framed_bytes_sockaddr_exempt(self):
        flagged = [f for f in self.findings if "sockets_ok.cc" in f]
        self.assertEqual(flagged, [],
                         "sockaddr casts are kernel ABI, not framed bytes")

    def test_tmp_staging(self):
        self.assert_finding("src/core/bad_tmp.cc:1", "tmp-staging")

    def test_test_registration(self):
        self.assert_finding("tests/orphan_test.cc:1", "test-registration")

    def test_asan_full_suite(self):
        self.assert_finding(".github/workflows/ci.yml:3", "asan-full-suite")

    def test_tsan_consistency_built_not_run(self):
        matches = [f for f in self.findings
                   if "[tsan-consistency]" in f and "exec_test" in f]
        self.assertTrue(matches, "\n".join(self.findings))

    def test_tsan_consistency_run_not_built(self):
        matches = [f for f in self.findings
                   if "[tsan-consistency]" in f and "core_test" in f]
        self.assertTrue(matches, "\n".join(self.findings))

    def test_tsan_coverage(self):
        self.assert_finding("tests/conc_test.cc:1", "tsan-coverage")

    def test_module_dag(self):
        self.assert_finding("src/common/bad_dag.h:1", "module-dag")

    def test_obs_inertness_include(self):
        self.assert_finding("src/serve/checkpoint.cc:1", "obs-inertness")

    def test_obs_inertness_symbol(self):
        self.assert_finding("src/serve/checkpoint.cc:3", "obs-inertness")

    def test_obs_inertness_comment_exempt(self):
        flagged = [f for f in self.findings
                   if f.startswith("src/serve/checkpoint.cc:2:")]
        self.assertEqual(flagged, [],
                         "comment mentions of the metrics layer are prose, "
                         "not a dependency")

    def test_raw_mutex(self):
        self.assert_finding("src/exec/bad_sync.h:2", "raw-mutex")

    def test_pair_decode_dot_field(self):
        self.assert_finding("src/stream/bad_pairs.cc:2", "pair-decode")

    def test_pair_decode_arrow_field(self):
        self.assert_finding("src/stream/bad_pairs.cc:3", "pair-decode")

    def test_pair_decode_codec_exempt(self):
        flagged = [f for f in self.findings if "ground_truth.cc" in f]
        self.assertEqual(flagged, [],
                         "the shared pair codec is the one allowed reader")

    def test_fp_contract_flag_missing(self):
        self.assert_finding("CMakeLists.txt:2", "fp-contract")

    def test_fp_contract_reenabled(self):
        self.assert_finding("src/nn/CMakeLists.txt:2", "fp-contract")

    def test_clock_bytes_elapsed(self):
        self.assert_finding("src/stream/bad_clock.cc:2", "clock-bytes")

    def test_clock_bytes_multiline_seconds(self):
        self.assert_finding("src/stream/bad_clock.cc:3", "clock-bytes")

    def test_clock_bytes_threshold_exempt(self):
        self.assertFalse(
            [f for f in self.findings
             if f.startswith("src/stream/bad_clock.cc:5:")],
            "a non-clock double (and a comment naming seconds) is fine")

    def test_dead_surface_test_only_function(self):
        self.assert_finding("src/text/surface.h:4", "dead-surface")

    def test_dead_surface_test_only_member(self):
        self.assert_finding("src/text/surface.h:10", "dead-surface")

    def test_dead_surface_allowlisted(self):
        flagged = [f for f in self.findings if "IsValidIsin" in f]
        self.assertEqual(flagged, [],
                         "an allowlisted function is surface kept on purpose")

    def test_dead_surface_example_caller(self):
        flagged = [f for f in self.findings if "[dead-surface]" in f and
                   ("ExampleCalls" in f or "size" in f or "Widget has" in f)]
        self.assertEqual(flagged, [],
                         "a caller in examples/ makes a function live")

    def test_dead_surface_test_only_implementation(self):
        self.assert_finding("src/text/scorers.h:6", "dead-surface")

    def test_dead_surface_observed_only_implementation(self):
        self.assert_finding("src/text/scorers.h:9", "dead-surface")

    def test_dead_surface_live_and_allowlisted_implementations(self):
        flagged = {m.group(1) for f in self.findings
                   for m in [re.search(r"\[dead-surface\] (\w+) implements",
                                       f)] if m}
        self.assertEqual(flagged, {"TestOnlyScorer", "ObservedScorer"},
                         "a built, allowlisted or non-src-derived class is "
                         "not dead surface")

    def test_no_unexpected_findings(self):
        # Every fixture finding is one of the seeded ones: no rule
        # misfires on the clean fixture files.
        seeded = ("bad_bytes.cc", "bad_tmp.cc", "orphan_test.cc",
                  "conc_test.cc", "ci.yml", "bad_dag.h", "bad_sync.h",
                  "checkpoint.cc", "bad_pairs.cc", "bad_clock.cc:2:",
                  "bad_clock.cc:3:", "CMakeLists.txt",
                  "surface.h:4:", "surface.h:10:", "scorers.h:6:",
                  "scorers.h:9:")
        for f in self.findings:
            self.assertTrue(any(s in f for s in seeded),
                            f"unexpected finding: {f}")


class RealTreeTest(unittest.TestCase):
    def test_real_tree_is_clean(self):
        findings = check_invariants.run(REPO_ROOT)
        self.assertEqual(findings, [],
                         "the shipped tree must satisfy its own invariants")


if __name__ == "__main__":
    unittest.main()
