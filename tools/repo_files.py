#!/usr/bin/env python3
"""Shared repo file discovery for the source-hygiene tools.

One place that knows which files each checker covers, so md_check.py and
check_invariants.py cannot drift apart. Stdlib-only, like its consumers.
"""

import pathlib

#: src/ modules, as built by gralmatch_add_module (src/CMakeLists.txt).
MODULES = (
    "blocking", "common", "core", "data", "datagen", "eval", "exec",
    "graph", "matching", "net", "nn", "obs", "serve", "shard", "stream",
    "text",
)


def markdown_files(repo_root):
    """The markdown set md_check.py lints: the top-level prose files plus
    everything under docs/. Missing files are skipped (ISSUE.md is only
    present while a change is in flight)."""
    root = pathlib.Path(repo_root)
    files = [root / name
             for name in ("README.md", "ROADMAP.md", "CHANGES.md", "ISSUE.md")]
    files += sorted((root / "docs").glob("**/*.md"))
    return [f for f in files if f.is_file()]


def source_files(repo_root, modules=None):
    """All first-party C++ files under src/ (optionally restricted to the
    given module names), sorted for stable diagnostics."""
    root = pathlib.Path(repo_root)
    names = MODULES if modules is None else tuple(modules)
    out = []
    for mod in names:
        for pattern in ("*.h", "*.cc"):
            out.extend(sorted((root / "src" / mod).glob(pattern)))
    return out


def program_files(repo_root):
    """Every C++ file of a program: the library, its examples, benches and
    the end-to-end harness. tests/ is not among them, so a function only
    its own unit test calls has no caller here."""
    root = pathlib.Path(repo_root)
    return [p for d in ("src", "examples", "bench", "e2ebench")
            for p in sorted((root / d).rglob("*"))
            if p.suffix in (".h", ".cc", ".cpp") and p.is_file()]


def test_suite_files(repo_root):
    """tests/*_test.cc — one gtest suite per file, by repo convention."""
    root = pathlib.Path(repo_root)
    return sorted((root / "tests").glob("*_test.cc"))
