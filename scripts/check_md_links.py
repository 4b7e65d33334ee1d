#!/usr/bin/env python3
"""Markdown link and source-reference checker for the docs layer
(stdlib only).

Validates every inline markdown link/image in the given files (default:
README.md, ROADMAP.md, docs/*.md from the repo root):

  * relative links must point at an existing file or directory
    (anchors are stripped; pure in-page #anchors are checked against the
    target file's headings);
  * absolute URLs are accepted syntactically (no network I/O — CI must
    stay hermetic) but must use http(s).

Additionally flags *stale source references*: any token that looks like
a repository source path (src/..., tests/..., bench/..., docs/...,
scripts/..., examples/..., .github/...) or like an #include of a header
under src/ (e.g. `query/range_scan.hpp`) must name a file that still
exists — so documentation citing a deleted header (say, the retired
per-shard mirror arenas) fails the check instead of rotting. Checked in
prose AND fenced code blocks; generated artifacts (build/), external
library includes (<gtest/...>, benchmark/...) and path globs (which the
reference regexes structurally cannot match) are exempt.

Exit status 0 when everything resolves, 1 otherwise, listing each broken
reference as file:line: message.
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"!?\[(?:[^\]\\]|\\.)*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")

# Repo-rooted source paths cited in prose or code blocks. A trailing
# word character or dot keeps the match maximal; the extension list is
# deliberately explicit so version numbers ("v1.14.0") never match.
SRC_REF_RE = re.compile(
    r"\b((?:src|tests|bench|docs|scripts|examples|\.github)/"
    r"[\w./-]+\.(?:hpp|cpp|h|py|md|yml|yaml|sh|txt))\b"
)
# Headers cited include-style, relative to src/ (the project's include
# root): `core/lockfree_trie.hpp`, "query/range_scan.hpp", ...
INCLUDE_REF_RE = re.compile(r"\b([\w-]+(?:/[\w-]+)+\.(?:hpp|cpp|h))\b")


# Include roots of external libraries legitimately cited in snippets
# (system includes like <gtest/gtest.h> are also excluded structurally:
# a ref preceded by '<' is never ours).
EXTERNAL_INCLUDE_ROOTS = {"gtest", "gmock", "benchmark", "build", "include"}


def check_source_refs(root: Path, where: str, line: str, errors: list) -> None:
    seen = set()
    for m in SRC_REF_RE.finditer(line):
        ref = m.group(1)
        seen.add(ref)
        if not (root / ref).exists():
            errors.append(f"{where}: stale source reference '{ref}' "
                          f"(no such file)")
    for m in INCLUDE_REF_RE.finditer(line):
        ref = m.group(1)
        if ref in seen or any(ref.endswith(s) or s.endswith(ref) for s in seen):
            continue  # already handled as a repo-rooted path
        if m.start() > 0 and line[m.start() - 1] == "<":
            continue  # <system/header.h>: an external include, not ours
        first = ref.split("/", 1)[0]
        if first in EXTERNAL_INCLUDE_ROOTS:
            continue  # external / generated trees are not checked
        if (root / first).is_dir() and first != "src":
            continue  # repo-rooted form already validated above
        if not (root / "src" / ref).exists():
            errors.append(f"{where}: stale header reference '{ref}' "
                          f"(no such file under src/)")


def slugify(heading: str) -> str:
    """GitHub-style anchor slug: lowercase, drop punctuation, dash spaces."""
    text = re.sub(r"[`*_~\[\]()]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def headings_of(path: Path) -> set:
    slugs = set()
    in_code = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        m = HEADING_RE.match(line)
        if m:
            slugs.add(slugify(m.group(1)))
    return slugs


def check_file(md: Path, root: Path, errors: list) -> None:
    in_code = False
    for lineno, line in enumerate(
        md.read_text(encoding="utf-8").splitlines(), start=1
    ):
        # Source references are validated everywhere, fences included —
        # a stale `#include "query/foo.hpp"` in a quickstart snippet is
        # exactly the rot this check exists to catch.
        check_source_refs(root, f"{md}:{lineno}", line, errors)
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        if in_code:
            continue
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            where = f"{md}:{lineno}"
            if target.startswith(("http://", "https://")):
                continue
            if target.startswith(("mailto:", "ftp:")):
                errors.append(f"{where}: unsupported scheme in '{target}'")
                continue
            path_part, _, anchor = target.partition("#")
            dest = md if not path_part else (md.parent / path_part).resolve()
            if not dest.exists():
                errors.append(f"{where}: broken link '{target}' "
                              f"(no such file: {dest})")
                continue
            if anchor and dest.is_file() and dest.suffix == ".md":
                if slugify(anchor) not in headings_of(dest):
                    errors.append(f"{where}: broken anchor '#{anchor}' "
                                  f"in {dest.name}")


def main(argv: list) -> int:
    root = Path(__file__).resolve().parent.parent
    files = [Path(a) for a in argv] if argv else (
        [root / "README.md", root / "ROADMAP.md"]
        + sorted((root / "docs").glob("*.md"))
    )
    errors = []
    checked = 0
    for md in files:
        if not md.exists():
            errors.append(f"{md}: file not found")
            continue
        checked += 1
        check_file(md, root, errors)
    for e in errors:
        print(e, file=sys.stderr)
    print(f"checked {checked} markdown file(s): "
          f"{'OK' if not errors else f'{len(errors)} broken reference(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
