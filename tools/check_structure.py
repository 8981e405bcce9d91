#!/usr/bin/env python3
"""Structural checks on the source tree, run in CI next to the other gates.

Fails (exit 1) when:
  * `ProtocolKind::` appears in src/ outside src/core/config.h and the
    protocol factory (src/core/commit_protocol.cc): the exactly-once
    protocol is chosen once, not switched on inside the engine;
  * README.md, DESIGN.md, EXPERIMENTS.md or ROADMAP.md names a file under
    src/, tests/, bench/ or tools/ that does not exist.

Usage: python3 tools/check_structure.py [repo_root]
"""

import pathlib
import re
import sys

PROTOCOL_KIND_ALLOWED = {"src/core/config.h", "src/core/commit_protocol.cc"}
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
# A file-like path under one of the checked trees, not part of a longer
# path (perfbench/src/main.cc is not src/main.cc). Globs and placeholders
# (BENCH_*.json, <name>.cc) stop the match before any extension.
DOC_PATH = re.compile(
    r"(?<![\w/.-])((?:src|tests|bench|tools)/[\w./-]*\.[A-Za-z]+)")


def protocol_kind_sites(root):
    errors = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if rel in PROTOCOL_KIND_ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "ProtocolKind::" in line:
                errors.append(f"{rel}:{lineno}: ProtocolKind:: outside "
                              "config.h and the protocol factory")
    return errors


def missing_doc_paths(root):
    errors = []
    for doc in DOCS:
        path = root / doc
        if not path.is_file():
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for match in DOC_PATH.finditer(line):
                named = match.group(1).rstrip(".")
                if not (root / named).exists():
                    errors.append(f"{doc}:{lineno}: names missing file "
                                  f"{named}")
    return errors


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    errors = protocol_kind_sites(root) + missing_doc_paths(root)
    for error in errors:
        print(error)
    if errors:
        print(f"check_structure: {len(errors)} problem(s)")
        return 1
    print("check_structure: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
