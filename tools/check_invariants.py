#!/usr/bin/env python3
"""Repo-invariant linter: rules the compiler cannot check.

The companion of tools/md_check.py for source hygiene, and of the
`-Wthread-safety` clang CI leg for concurrency discipline: each rule below
is an invariant the repo's documentation promises (docs/static-analysis.md,
docs/formats.md, docs/architecture.md) but that neither the type system nor
the thread-safety analysis can enforce. Stdlib-only so CI needs nothing
beyond python3. Exit status: 0 clean, 1 findings, 2 usage error.

Rules (each finding is printed as `file:line: [rule] message`):

  framed-bytes     Wire/checkpoint byte access in the framed modules
                   (serve, net, shard, stream) goes through BinaryReader /
                   BinaryWriter / serve/framing.h helpers — no raw memcpy
                   or reinterpret_cast on framed bytes. Socket-ABI sockaddr
                   casts are exempt (they are kernel ABI, not framed
                   bytes). The legacy GRLM weight format (src/nn) predates
                   binary_io and is outside these modules; see
                   docs/static-analysis.md.

  tmp-staging      No naked ".tmp" staging paths: only WriteFileAtomically
                   (src/serve/framing.cc) may construct staging names, and
                   only the sharded-checkpoint GC may *recognize* them.
                   Anything else re-introduces the torn-staging race that
                   WriteFileAtomically exists to prevent.

  test-registration  Every tests/*_test.cc suite is registered via
                   gralmatch_add_test in tests/CMakeLists.txt (otherwise it
                   silently never runs anywhere).

  asan-full-suite  The ASan+UBSan CI job runs the *unfiltered* ctest suite:
                   its ctest invocation must carry no -L/-R filter, so a
                   newly registered suite is automatically covered.

  tsan-consistency The TSan job's cmake --target list and its ctest -L
                   label regex must name the same suites (a suite built but
                   not run — or run but not built — is a silent CI hole).

  tsan-coverage    Every test suite that exercises concurrency (mentions
                   ThreadPool / ParallelFor / std::thread / std::atomic /
                   num_threads) must be in the TSan leg.

  module-dag       #includes across src/ modules must follow the
                   documented module DAG (docs/architecture.md, mirrored in
                   src/CMakeLists.txt): an include of a module outside the
                   transitive closure of the including module's declared
                   dependencies is an undeclared (or upward) edge.

  obs-inertness    The files that define serialized bytes
                   (serve/checkpoint.*, serve/framing.*, net/wire.*) never
                   reference the obs module: instrumentation is promised
                   inert (docs/observability.md), and code that cannot
                   name a MetricsRegistry cannot leak one into checkpoint
                   or wire bytes. Phase timing for those paths belongs at
                   call sites.

  raw-mutex        No bare std::mutex / std::condition_variable /
                   std::lock_guard / std::unique_lock in src/ outside
                   common/mutex.h: concurrent code uses the annotated
                   gralmatch::Mutex / MutexLock / CondVar wrappers so
                   clang's Thread Safety Analysis can see every lock.

  pair-decode      No ReadI32(&x.a) / ReadI32(&x->b) pair-field reads in
                   src/ outside the shared pair codec (ReadRecordPair in
                   data/ground_truth.cc): every stored pair is decoded
                   through the one function that requires
                   0 <= a < b < num_records (docs/formats.md).

  fp-contract      The top-level CMakeLists.txt passes -ffp-contract=off
                   through gralmatch_compile_options (every first-party
                   target), and no CMakeLists.txt turns contraction or
                   -ffast-math back on: a fused multiply-add rounds once
                   and would change the nn kernels' bits on any -march
                   with FMA (docs/matchers.md "Kernel dispatch").

  clock-bytes      No WriteDouble( argument under src/ names seconds, a
                   Stopwatch or Elapsed: a wall-clock reading differs
                   between two runs of one schedule, so written into
                   checkpoint or wire bytes it would make identical states
                   serialize differently and change content-addressed shard
                   file names (docs/formats.md, "Shared conventions"). Time
                   belongs in the metrics registry and the per-mutation
                   IngestReport.

  dead-surface     Every function a src/**/*.h header declares has a caller
                   in src/, examples/, bench/ or e2ebench/ besides its own
                   declaration and definition, or sits on
                   DEAD_SURFACE_ALLOWLIST with its reason: a function only
                   its unit test calls is surface no program needs. Callers
                   are matched by name, so an overload or a same-named
                   function elsewhere counts as a caller. Likewise every
                   class a src/**/*.h header derives from a src/ class
                   (an implementation of a src/ interface) is named in that
                   program code outside its own .h/.cc, or is allowlisted:
                   overrides share their interface's names, so the function
                   check alone cannot see an implementation nothing
                   constructs. Pointer, reference and `Name::` mentions
                   and cast targets observe objects someone else builds,
                   so they are not uses.
"""

import argparse
import pathlib
import re
import sys

try:
    import repo_files
except ImportError:  # invoked as tools/check_invariants.py from repo root
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import repo_files

# --- rule configuration ----------------------------------------------------

#: Modules whose on-disk/on-wire formats are framed (magic/version/length/
#: checksum); raw byte reinterpretation is banned here.
FRAMED_MODULES = ("serve", "net", "shard", "stream")

#: The one file allowed to build ".tmp" staging names, and the one file
#: allowed to recognize them (stale-staging GC) — with the reason on record.
TMP_ALLOWLIST = {
    "src/serve/framing.cc": "WriteFileAtomically owns staging-name construction",
    "src/serve/sharded_checkpoint.cc":
        "checkpoint GC must recognize stale staging files to delete them",
}

#: Direct module dependency edges, exactly the target_link_libraries edges
#: declared in src/*/CMakeLists.txt (docs/architecture.md shows the DAG).
#: check_dag() uses the transitive closure: a PUBLIC link exposes its own
#: public deps' headers.
MODULE_DEPS = {
    "common": (),
    "exec": ("common",),
    "obs": ("common",),
    "text": ("common",),
    "data": ("common",),
    "graph": ("common",),
    "nn": ("common",),
    "blocking": ("common", "data", "exec", "text"),
    "datagen": ("data", "text"),
    "eval": ("data", "graph"),
    "matching": ("blocking", "data", "nn", "text"),
    "core": ("blocking", "data", "exec", "graph", "matching", "obs"),
    "stream": ("blocking", "common", "core", "data", "exec", "graph",
               "matching", "obs"),
    "shard": ("common", "data", "matching", "obs", "stream"),
    "serve": ("common", "core", "data", "matching", "obs", "shard", "stream"),
    "net": ("common", "exec", "obs", "serve"),
}

#: The one file allowed to read a pair's fields off the wire: the shared
#: pair codec, which checks canonical order and range for every layout.
PAIR_CODEC_FILE = "src/data/ground_truth.cc"

PAIR_FIELD_READ_RE = re.compile(r"ReadI32\(\s*&\s*[\w\[\]]+(?:\.|->)(a|b)\s*\)")

#: Files that define serialized bytes or the framing discipline and must
#: stay observability-free: docs/observability.md promises instrumentation
#: is inert (never in checkpoint or wire bytes), and the cheapest proof is
#: that the code producing those bytes cannot even name the obs module.
#: Timing for these paths lives at call sites (e.g. the sharded-checkpoint
#: helpers, examples/serve_loop.cpp).
OBS_FREE_FILES = {
    "src/serve/checkpoint.h": "single-file checkpoint bytes",
    "src/serve/checkpoint.cc": "single-file checkpoint bytes",
    "src/serve/framing.h": "shared frame discipline (magic/version/checksum)",
    "src/serve/framing.cc": "shared frame discipline (magic/version/checksum)",
    "src/net/wire.h": "RPC frame encode/decode",
    "src/net/wire.cc": "RPC frame encode/decode",
}

#: The flag every first-party target must compile with, and the CMake
#: settings that would undo it.
FP_CONTRACT_FLAG = "-ffp-contract=off"
FP_UNSAFE_RE = re.compile(r"-ffp-contract=(?!off\b)\w+|-ffast-math\b")

WRITE_DOUBLE_RE = re.compile(r"\bWriteDouble\s*\(")
CLOCK_NAME_RE = re.compile(r"(?i:seconds)|Stopwatch|Elapsed")

OBS_SYMBOL_RE = re.compile(r'#include\s+"obs/|\bobs::|\bMetricsRegistry\b')

#: Header functions no program calls that stay anyway, each with the reason.
#: Keys are `Class::name` for members and `name` for free functions.
DEAD_SURFACE_ALLOWLIST = {
    "IsValidIsin": "check-digit oracle for the generated identifiers",
    "IsValidCusip": "check-digit oracle for the generated identifiers",
    "IsValidSedol": "check-digit oracle for the generated identifiers",
    "IsValidValor": "format oracle for the generated identifiers",
    "TokenOverlapCount":
        "datagen tests measure paraphrase and title overlap with it",
    "SubwordVocab::TokenText":
        "vocab tests read the token behind an id through it",
    "UnionFind::num_sets":
        "property tests check the set count against a reference partition",
    "Graph::num_edges_alive":
        "cleanup tests count the edges a cut leaves alive",
    "NetServer::active_connections":
        "net tests wait on it until a closed connection's slot is reaped",
    "ShardFilePaths":
        "corruption tests find shard files, whose names embed checksums",
    "CascadeMatcher":
        "kept on the LM gate-band measurement (ROADMAP item 5); no "
        "program builds one until the LM cascade workload lands (item 10)",
}

LITERAL_OR_COMMENT_RE = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S)
DIRECTIVE_RE = re.compile(r"^[ \t]*#[ \t]*(?!define\b)\w+[^\n]*", re.M)
CODE_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|[;{}()]")
QUALIFIER_TAIL_RE = re.compile(r"(?:\b\w+\s*::\s*)+$")
#: A prefix ending in a return type: a name, a closing template or
#: attribute bracket, or a pointer/reference sigil glued to one (`T* F(`).
RETURN_TYPE_TAIL_RE = re.compile(r"(?:\w|(?<!-)>|\]|[\w>][*&]+)\s*$")
NOT_A_DECL_WORD_RE = re.compile(
    r"\b(?:return|throw|else|case|new|delete|goto|do|co_return|co_yield|"
    r"co_await|sizeof)\b")
CLASS_HEAD_RE = re.compile(r"^\s*(?:template\s*<[^{]*?>\s*)?"
                           r"(?:class|struct|union|enum)\b")
#: A class head with a base clause: `class Name [final] : bases {`.
DERIVED_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+(\w+)(?:\s+final)?\s*:(?!:)\s*([^{;]*)\{")
CLASS_NAME_RE = re.compile(r"\b(?:class|struct)\s+(\w+)")
ACCESS_WORDS = frozenset(("public", "protected", "private", "virtual"))
CAST_RE = re.compile(r"\b\w+_cast\s*<[^>]*>")
CPP_KEYWORDS = frozenset("""
    _Pragma alignas alignof asm auto bool char const constexpr decltype
    double else explicit float for if int long noexcept operator requires
    return short signed sizeof static_assert switch typeid unsigned void
    volatile while
    """.split())


#: A test suite mentioning any of these exercises concurrency and must run
#: under TSan (calibrated against the tree; see tsan-coverage above).
CONCURRENCY_MARKERS = re.compile(
    r"ThreadPool|ParallelFor|std::thread|std::atomic|num_threads")

INCLUDE_RE = re.compile(r'^\s*#include\s+"([^"]+)"')
SOCKADDR_CAST_RE = re.compile(r"reinterpret_cast<(?:const\s+)?sockaddr\s*\*>")
RAW_SYNC_RE = re.compile(
    r"std::(mutex|condition_variable|lock_guard|unique_lock|scoped_lock)\b")


def strip_comments(line):
    """Drop // comments (good enough for these rules; the tree has no
    byte-twiddling inside /* */ blocks)."""
    return line.split("//", 1)[0]


def rel(path, repo_root):
    return path.relative_to(repo_root).as_posix()


# --- rules -----------------------------------------------------------------

def check_framed_bytes(repo_root):
    errors = []
    for path in repo_files.source_files(repo_root, FRAMED_MODULES):
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            code = strip_comments(line)
            if "memcpy" in code:
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [framed-bytes] raw "
                    "memcpy in a framed module — use BinaryReader/"
                    "BinaryWriter (common/binary_io.h)")
            if "reinterpret_cast" in code and not SOCKADDR_CAST_RE.search(code):
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [framed-bytes] raw "
                    "reinterpret_cast in a framed module — use BinaryReader/"
                    "BinaryWriter or the serve/framing.h helpers")
    return errors


def check_tmp_staging(repo_root):
    errors = []
    for path in repo_files.source_files(repo_root):
        if rel(path, repo_root) in TMP_ALLOWLIST:
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            code = strip_comments(line)
            if re.search(r'"[^"]*\.tmp[^"]*"', code):
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [tmp-staging] "
                    "\".tmp\" staging path outside WriteFileAtomically — "
                    "stage durable writes through serve/framing.h")
    return errors


def registered_suites(repo_root):
    """Suite names registered with gralmatch_add_test in tests/CMakeLists."""
    cmake = (repo_root / "tests" / "CMakeLists.txt").read_text(encoding="utf-8")
    return set(re.findall(r"gralmatch_add_test\(\s*(\w+)", cmake))


def check_test_registration(repo_root):
    errors = []
    registered = registered_suites(repo_root)
    for path in repo_files.test_suite_files(repo_root):
        if path.stem not in registered:
            errors.append(
                f"{rel(path, repo_root)}:1: [test-registration] suite "
                f"{path.stem} is not registered via gralmatch_add_test in "
                "tests/CMakeLists.txt — it never runs")
    return errors


def job_block(ci_text, job_name):
    """The indented body of one top-level workflow job, with its starting
    line number (1-based)."""
    m = re.search(rf"^  {job_name}:\n(.*?)(?=^  \w[\w-]*:|\Z)", ci_text,
                  re.M | re.S)
    if not m:
        return None, 0
    return m.group(1), ci_text[:m.start()].count("\n") + 1


def tsan_sets(ci_text):
    """(built_targets, labelled_suites, line_of_job) from the TSan job."""
    block, lineno = job_block(ci_text, "sanitize-thread")
    if block is None:
        return set(), set(), 0
    built = set()
    m = re.search(r"--target\s+(.*?)(?=\n\s*\n|\n\s*- name|\Z)", block, re.S)
    if m:
        built = set(re.findall(r"\b(\w+_test)\b", m.group(1)))
    labelled = set()
    m = re.search(r"-L\s+'\^\(([^)]*)\)\$'", block)
    if m:
        labelled = set(m.group(1).split("|"))
    return built, labelled, lineno


def check_ci_legs(repo_root):
    errors = []
    ci_path = repo_root / ".github" / "workflows" / "ci.yml"
    if not ci_path.is_file():
        return [f".github/workflows/ci.yml:1: [asan-full-suite] CI workflow "
                "file is missing"]
    ci_text = ci_path.read_text(encoding="utf-8")
    ci_rel = rel(ci_path, repo_root)

    # ASan leg runs the unfiltered suite.
    block, lineno = job_block(ci_text, "sanitize")
    if block is None:
        errors.append(f"{ci_rel}:1: [asan-full-suite] no `sanitize:` job "
                      "(the ASan+UBSan leg) in the workflow")
    else:
        ctest = re.search(r"^(.*ctest .*)$", block, re.M)
        if ctest is None:
            errors.append(f"{ci_rel}:{lineno}: [asan-full-suite] the "
                          "sanitize job never runs ctest")
        elif re.search(r"\s-[LR]\s", ctest.group(1)):
            errors.append(
                f"{ci_rel}:{lineno}: [asan-full-suite] the sanitize job "
                "filters ctest with -L/-R — it must run the full suite so "
                "new suites are covered automatically")

    # TSan leg: build list == label list, and both cover every concurrent
    # suite.
    built, labelled, lineno = tsan_sets(ci_text)
    if not built or not labelled:
        errors.append(f"{ci_rel}:1: [tsan-consistency] could not find the "
                      "sanitize-thread job's --target list and ctest -L "
                      "label regex")
        return errors
    for suite in sorted(built - labelled):
        errors.append(
            f"{ci_rel}:{lineno}: [tsan-consistency] {suite} is built by the "
            "TSan job but missing from its ctest -L regex (built, never run)")
    for suite in sorted(labelled - built):
        errors.append(
            f"{ci_rel}:{lineno}: [tsan-consistency] {suite} is in the TSan "
            "ctest -L regex but not built by the job (run would find no "
            "tests)")
    tsan = built & labelled
    for path in repo_files.test_suite_files(repo_root):
        if path.stem in tsan:
            continue
        if CONCURRENCY_MARKERS.search(path.read_text(encoding="utf-8")):
            errors.append(
                f"{rel(path, repo_root)}:1: [tsan-coverage] suite "
                f"{path.stem} exercises concurrency but is not in the TSan "
                "CI leg (add it to the job's --target list AND -L regex in "
                ".github/workflows/ci.yml)")
    return errors


def dag_closure():
    closure = {}

    def visit(mod):
        if mod not in closure:
            deps = set(MODULE_DEPS[mod])
            for d in MODULE_DEPS[mod]:
                deps |= visit(d)
            closure[mod] = deps
        return closure[mod]

    for mod in MODULE_DEPS:
        visit(mod)
    return closure


def check_module_dag(repo_root):
    errors = []
    closure = dag_closure()
    for path in repo_files.source_files(repo_root):
        mod = path.parent.name
        allowed = closure.get(mod, set()) | {mod}
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            target_mod = m.group(1).split("/", 1)[0]
            if target_mod in MODULE_DEPS and target_mod not in allowed:
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [module-dag] "
                    f"{mod} must not include \"{m.group(1)}\" — {target_mod} "
                    "is not in its declared dependency closure (see "
                    "docs/architecture.md and src/CMakeLists.txt)")
    return errors


def check_obs_inertness(repo_root):
    errors = []
    for relpath, what in sorted(OBS_FREE_FILES.items()):
        path = repo_root / relpath
        if not path.is_file():
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if OBS_SYMBOL_RE.search(strip_comments(line)):
                errors.append(
                    f"{relpath}:{lineno}: [obs-inertness] obs reference in "
                    f"{what} — serialization and framing code must not see "
                    "the metrics layer (docs/observability.md); time these "
                    "paths at their call sites")
    return errors


def check_raw_mutex(repo_root):
    errors = []
    for path in repo_files.source_files(repo_root):
        if rel(path, repo_root) == "src/common/mutex.h":
            continue  # the one wrapper implementation
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            m = RAW_SYNC_RE.search(strip_comments(line))
            if m:
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [raw-mutex] bare "
                    f"std::{m.group(1)} — use the annotated gralmatch::Mutex"
                    " / MutexLock / CondVar (common/mutex.h) so "
                    "-Wthread-safety can check the locking")
    return errors


def check_pair_decode(repo_root):
    errors = []
    for path in repo_files.source_files(repo_root):
        if rel(path, repo_root) == PAIR_CODEC_FILE:
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1):
            if PAIR_FIELD_READ_RE.search(strip_comments(line)):
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [pair-decode] pair "
                    "field read outside the shared pair codec — decode "
                    "pairs with ReadRecordPair / ReadSortedPairList "
                    "(data/ground_truth.h) so canonical order is checked")
    return errors


def call_argument(code, open_paren):
    """The text between `code[open_paren]` == "(" and its matching ")"."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:i]
    return code[open_paren + 1:]


def check_clock_bytes(repo_root):
    errors = []
    for path in repo_files.source_files(repo_root):
        code = code_of(path.read_text(encoding="utf-8"))
        for m in WRITE_DOUBLE_RE.finditer(code):
            argument = call_argument(code, m.end() - 1)
            clock = CLOCK_NAME_RE.search(argument)
            if clock:
                lineno = code.count("\n", 0, m.start()) + 1
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [clock-bytes] "
                    f"WriteDouble of a wall-clock value ({clock.group(0)}) — "
                    "serialized bytes must not depend on the run; record "
                    "time in the metrics registry instead")
    return errors


def cmake_code(text):
    """CMake text with # comments blanked (line numbers kept)."""
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def cmake_call_args(code, command, first_arg):
    """(argument text, 1-based line) of each `command(first_arg ...)` call
    in comment-stripped CMake code."""
    for m in re.finditer(rf"\b{command}\(\s*{first_arg}\b", code):
        depth, i = 1, m.end()
        while i < len(code) and depth:
            depth += {"(": 1, ")": -1}.get(code[i], 0)
            i += 1
        yield code[m.end():i - 1], code[:m.start()].count("\n") + 1


def check_fp_contract(repo_root):
    errors = []
    top = repo_root / "CMakeLists.txt"
    code = cmake_code(top.read_text(encoding="utf-8")) if top.is_file() else ""
    calls = list(cmake_call_args(code, "target_compile_options",
                                 "gralmatch_compile_options"))
    if not any(FP_CONTRACT_FLAG in args for args, _ in calls):
        lineno = calls[0][1] if calls else 1
        errors.append(
            f"CMakeLists.txt:{lineno}: [fp-contract] gralmatch_compile_options "
            f"must carry {FP_CONTRACT_FLAG}: without it an FMA-capable -march "
            "fuses multiply-adds and changes the nn kernels' bits")
    for path in sorted(repo_root.glob("**/CMakeLists.txt")):
        if any(part.startswith((".", "build")) for part in
               path.relative_to(repo_root).parts[:-1]):
            continue  # build trees and tool caches
        lines = cmake_code(path.read_text(encoding="utf-8")).splitlines()
        for lineno, line in enumerate(lines, start=1):
            m = FP_UNSAFE_RE.search(line)
            if m:
                errors.append(
                    f"{rel(path, repo_root)}:{lineno}: [fp-contract] "
                    f"{m.group(0)} re-enables FP contraction — the nn "
                    "kernels' multiply and add must round separately")
    return errors



def code_of(text):
    """C++ text with comments, string/char literals and non-#define
    directives blanked; newlines are kept so offsets map to lines."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))
    return DIRECTIVE_RE.sub(";", LITERAL_OR_COMMENT_RE.sub(blank, text))


def is_declarator(prefix):
    """True when `prefix` (the statement text before a name that is followed
    by `(`) makes the name a function being declared or defined rather than
    called: a bare return type with balanced brackets and no assignment."""
    prefix = QUALIFIER_TAIL_RE.sub("", prefix)
    if not RETURN_TYPE_TAIL_RE.search(prefix):
        return False
    if NOT_A_DECL_WORD_RE.search(prefix) or "=" in prefix:
        return False
    angles = prefix.replace("->", "")
    return (prefix.count("(") == prefix.count(")") and
            angles.count("<") == angles.count(">"))


def scan_functions(code):
    """Walk one file's code. Yields (name, offset, declared, enclosing)
    for every identifier: `declared` is True where it names a function
    being declared or defined, and `enclosing` is the class whose body the
    declaration sits in directly ("" at namespace scope, None inside a
    function body or parentheses — not a declaration of the file's
    surface)."""
    boundary, parens = 0, 0
    scopes = []  # (kind, class name) per open brace
    for m in CODE_TOKEN_RE.finditer(code):
        tok = m.group(0)
        if tok == "(":
            parens += 1
        elif tok == ")":
            parens = max(parens - 1, 0)
        elif tok in ";{}":
            if tok == "{":
                head = code[boundary:m.start()]
                if re.search(r"\b(?:namespace|extern)\b", head):
                    scopes.append(("ns", ""))
                elif CLASS_HEAD_RE.match(head):
                    base = re.split(r"(?<!:):(?!:)", head)[0]
                    names = [n for n in re.findall(r"\w+", base)
                             if n != "final"]
                    scopes.append(("class", names[-1] if names else ""))
                else:
                    scopes.append(("body", ""))
            elif tok == "}" and scopes:
                scopes.pop()
            boundary, parens = m.end(), 0
        else:
            rest = code[m.end():m.end() + 64].lstrip()
            declared = (rest.startswith("(") and
                        is_declarator(code[boundary:m.start()]))
            enclosing = None
            if parens == 0 and all(k != "body" for k, _ in scopes):
                enclosing = scopes[-1][1] if scopes and \
                    scopes[-1][0] == "class" else ""
            yield tok, m.start(), declared, enclosing


def check_dead_surface(repo_root):
    """Every function a src/ header declares has a caller outside tests/,
    and every src/ implementation of a src/ class is named outside its own
    files."""
    root = pathlib.Path(repo_root)
    codes = {rel(path, root): code_of(path.read_text(encoding="utf-8"))
             for path in repo_files.program_files(root)}
    headers = {relpath: code for relpath, code in codes.items()
               if relpath.startswith("src/") and relpath.endswith(".h")}
    used = set()
    declared = []  # (relpath, line, qualified name, name)
    for relpath, code in codes.items():
        for name, offset, is_decl, enclosing in scan_functions(code):
            if not is_decl:
                used.add(name)
            elif relpath in headers and enclosing is not None and \
                    name != enclosing and name not in CPP_KEYWORDS and \
                    not re.fullmatch(r"[A-Z0-9_]+", name):
                qualified = f"{enclosing}::{name}" if enclosing else name
                declared.append((relpath, code.count("\n", 0, offset) + 1,
                                 qualified, name))
    errors = []
    for relpath, lineno, qualified, name in declared:
        if name in used or qualified in DEAD_SURFACE_ALLOWLIST:
            continue
        errors.append(
            f"{relpath}:{lineno}: [dead-surface] {qualified} has no caller "
            "in src/, examples/, bench/ or e2ebench/ — delete it, or "
            "allowlist it with its reason in DEAD_SURFACE_ALLOWLIST")

    src_classes = {name for code in headers.values()
                   for name in CLASS_NAME_RE.findall(code)}
    uses = {relpath: CAST_RE.sub(" ", code)
            for relpath, code in codes.items()}
    for relpath, code in headers.items():
        own = (relpath, relpath[:-2] + ".cc")
        for m in DERIVED_CLASS_RE.finditer(code):
            name = m.group(1)
            bases = [b.split("::")[-1]
                     for b in re.findall(r"[\w:]+", m.group(2))
                     if b not in ACCESS_WORDS]
            base = next((b for b in bases if b in src_classes and b != name),
                        None)
            if base is None or name in DEAD_SURFACE_ALLOWLIST:
                continue
            pattern = re.compile(rf"\b{name}\b(?!\s*(?:[*&]|::))")
            if any(pattern.search(text) for other, text in uses.items()
                   if other not in own):
                continue
            errors.append(
                f"{relpath}:{code.count(chr(10), 0, m.start()) + 1}: "
                f"[dead-surface] {name} implements {base} but no code in "
                "src/, examples/, bench/ or e2ebench/ outside its own files "
                "names it other than by pointer, reference, `::` or cast — "
                "delete it, or allowlist it with its reason in "
                "DEAD_SURFACE_ALLOWLIST")
    return errors


ALL_RULES = (
    check_framed_bytes,
    check_tmp_staging,
    check_test_registration,
    check_ci_legs,
    check_module_dag,
    check_obs_inertness,
    check_raw_mutex,
    check_pair_decode,
    check_fp_contract,
    check_clock_bytes,
    check_dead_surface,
)


def run(repo_root):
    errors = []
    for rule in ALL_RULES:
        errors.extend(rule(repo_root))
    return errors


def main():
    parser = argparse.ArgumentParser(
        description="Repo-invariant linter (see module docstring).")
    parser.add_argument("--repo-root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()
    repo_root = pathlib.Path(args.repo_root).resolve()
    if not (repo_root / "src").is_dir():
        sys.stderr.write(f"no src/ under {repo_root} — wrong --repo-root?\n")
        return 2
    errors = run(repo_root)
    for err in errors:
        print(err)
    if errors:
        print(f"\n{len(errors)} invariant violation(s).")
        return 1
    print("OK: all repo invariants hold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
