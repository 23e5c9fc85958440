#!/usr/bin/env python3
"""Lint for the error-handling policy (docs/ERRORS.md).

Two rules, both cheap and both load-bearing:

1. The format parsers and dataset plumbing must use the strict parsers in
   common/strict_parse.h — std::stoul / std::stod / atof accept garbage
   suffixes, wrap negatives, and return NaN, so their reappearance in an
   input boundary silently reopens fixed holes.

2. The public Load/Save APIs in the I/O headers must go through the typed
   Status layer: Load* returns tmark::Result<...>, *ToFile returns
   tmark::Status. The transitional *OrThrow shims are gone; a declaration
   with that suffix is itself a violation.

Usage: check_error_policy.py --repo-root DIR
"""

import argparse
import os
import re
import sys

# Files where the banned lenient parsers must never reappear.
BOUNDARY_SOURCES = [
    "src/tmark/common/line_reader.cc",
    "src/tmark/common/line_reader.h",
    "src/tmark/hin/hin_io.cc",
    "src/tmark/hin/hin_delta.cc",
    "src/tmark/hin/hin_delta.h",
    "src/tmark/core/model_io.cc",
    "src/tmark/serve/protocol.cc",
    "tools/tmark_cli.cc",
    "tools/tmark_served.cc",
]
BOUNDARY_GLOB_DIRS = ["src/tmark/datasets"]

BANNED = re.compile(r"std::stoul|std::stod|std::stoi|std::stof|"
                    r"\batof\s*\(|\batoi\s*\(|\bstrtod\s*\(|\bstrtoul\s*\(")

# Headers whose Load/Save declarations must use the Status layer.
IO_HEADERS = ["src/tmark/hin/hin_io.h", "src/tmark/hin/hin_delta.h",
              "src/tmark/core/model_io.h"]

DECL = re.compile(
    r"^\s*([A-Za-z_][\w:<>&,\s]*?)\s+((?:Load|Save)\w*)\s*\(", re.MULTILINE)


def strip_comments(text):
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)


def check_banned_parsers(root, failures):
    files = list(BOUNDARY_SOURCES)
    for rel_dir in BOUNDARY_GLOB_DIRS:
        full_dir = os.path.join(root, rel_dir)
        for name in sorted(os.listdir(full_dir)):
            if name.endswith((".cc", ".h")):
                files.append(os.path.join(rel_dir, name))
    for rel in files:
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8") as fh:
            code = strip_comments(fh.read())
        for match in BANNED.finditer(code):
            failures.append(
                f"{rel}: lenient parser '{match.group(0).strip('(').strip()}'"
                " in an input boundary; use tmark::ParseIndex /"
                " ParseFiniteDouble (common/strict_parse.h)")


def check_status_signatures(root, failures):
    for rel in IO_HEADERS:
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8") as fh:
            code = strip_comments(fh.read())
        declarations = DECL.findall(code)
        if not declarations:
            failures.append(f"{rel}: no Load/Save declarations found "
                            "(lint out of date?)")
        for return_type, name in declarations:
            return_type = " ".join(return_type.split())
            if name.endswith("OrThrow"):
                failures.append(
                    f"{rel}: {name} reintroduces a throwing shim; the "
                    "*OrThrow transition is over — return tmark::Result/"
                    "Status (docs/ERRORS.md)")
                continue
            if name.startswith("Load") and "Result<" not in return_type:
                failures.append(
                    f"{rel}: {name} returns '{return_type}', must return "
                    "tmark::Result<...> (docs/ERRORS.md)")
            if name.endswith("ToFile") and not return_type.endswith("Status"):
                failures.append(
                    f"{rel}: {name} returns '{return_type}', must return "
                    "tmark::Status (docs/ERRORS.md)")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repo-root", required=True)
    args = parser.parse_args()

    failures = []
    check_banned_parsers(args.repo_root, failures)
    check_status_signatures(args.repo_root, failures)

    if failures:
        print(f"FAIL: {len(failures)} error-policy violations:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ok: error policy holds (no lenient parsers in boundaries; "
          "Load/Save signatures typed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
