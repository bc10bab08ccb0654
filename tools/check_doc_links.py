#!/usr/bin/env python3
"""Fail CI when documentation links rot.

Scans README.md and docs/*.md for Markdown links and images, and
verifies that every relative target resolves: the file must exist in
the repo, and a `#fragment` (on another file or bare, same-file) must
match a heading's GitHub-style anchor slug. External links
(http/https/mailto) are out of scope — this gate is about keeping the
repo self-consistent, not about the internet being up.

It also scans the comments of the C++ sources under src/ and tests/:
every `*.md` file a comment names must exist, at that path from the
repo root or next to the source file.

Usage: tools/check_doc_links.py [repo_root]   (exit 1 on any broken link)
"""

import re
import sys
from pathlib import Path

# [text](target) and ![alt](target); target may carry a "title".
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
EXTERNAL = ("http://", "https://", "mailto:")

# One C++ lexical unit that can hide a comment marker or hold one:
# comments, raw strings, string literals and character literals. Scanning
# them left to right keeps "//a" in a string from reading as a comment.
CPP_UNIT_RE = re.compile(
    r"(?P<comment>//[^\n]*|/\*.*?\*/)"
    r'|R"(?P<delim>[^(\s"]*)\(.*?\)(?P=delim)"'
    r'|"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n]){1,8}'",  # short: 10'000 is no char literal
    re.DOTALL)
MD_NAME_RE = re.compile(r"[\w./-]*\w\.md\b")
SOURCE_DIRS = ("src", "tests")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp"}


def anchor_slug(heading: str) -> str:
    """GitHub's heading-to-anchor rule: strip formatting/punctuation,
    lowercase, spaces to hyphens."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.lower().replace(" ", "-")


def heading_anchors(path: Path) -> set:
    anchors = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if match:
            anchors.add(anchor_slug(match.group(1)))
    return anchors


def strip_code(text: str) -> str:
    """Links inside fenced or inline code are examples, not references."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`]*`", "", text)


def check_file(doc: Path, root: Path, anchors_cache: dict) -> list:
    errors = []
    for target in LINK_RE.findall(strip_code(doc.read_text(encoding="utf-8"))):
        if target.startswith(EXTERNAL):
            continue
        path_part, _, fragment = target.partition("#")
        if path_part:
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{doc.relative_to(root)}: broken link "
                              f"'{target}' -> {path_part} does not exist")
                continue
        else:
            resolved = doc
        if fragment and resolved.suffix == ".md":
            if resolved not in anchors_cache:
                anchors_cache[resolved] = heading_anchors(resolved)
            if fragment.lower() not in anchors_cache[resolved]:
                errors.append(f"{doc.relative_to(root)}: broken anchor "
                              f"'{target}' — no heading '#{fragment}' in "
                              f"{resolved.relative_to(root)}")
    return errors


def check_source_refs(root: Path) -> list:
    """Every *.md file named in a comment under src/ or tests/ exists."""
    errors = []
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            text = path.read_text(encoding="utf-8")
            for unit in CPP_UNIT_RE.finditer(text):
                if unit.group("comment") is None:
                    continue
                for name in MD_NAME_RE.finditer(unit.group("comment")):
                    target = name.group()
                    if (root / target).exists() or \
                            (path.parent / target).exists():
                        continue
                    line = text.count("\n", 0, unit.start() + name.start())
                    errors.append(f"{path.relative_to(root)}:{line + 1}: "
                                  f"comment names '{target}', which does "
                                  f"not exist")
    return errors


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    docs = [d for d in docs if d.exists()]
    if not docs:
        print("check_doc_links: no documentation files found", file=sys.stderr)
        return 1

    anchors_cache = {}
    errors = []
    for doc in docs:
        errors.extend(check_file(doc, root, anchors_cache))
    errors.extend(check_source_refs(root))

    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    checked = ", ".join([str(d.relative_to(root)) for d in docs] +
                        [f"comments under {top}/" for top in SOURCE_DIRS])
    if errors:
        print(f"check_doc_links: {len(errors)} broken link(s) across "
              f"{checked}", file=sys.stderr)
        return 1
    print(f"check_doc_links: OK ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
