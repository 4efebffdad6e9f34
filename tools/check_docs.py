#!/usr/bin/env python3
"""Check the repo's markdown docs for broken cross-references.

Usage:
  check_docs.py [ROOT] [--files FILE ...]

Validates, across README.md and docs/*.md (or an explicit --files list):

  * markdown links `[text](target)` whose target is a repo-relative or
    doc-relative path: the file (or directory) must exist;
  * `#anchor` fragments, against the target file's headings using
    GitHub's anchor algorithm (lowercase, punctuation stripped, spaces
    to hyphens, -N suffixes for duplicates);
  * inline-code path references like `src/grape/system.cpp` or
    `tools/check_trace.py` (a slash plus a known source extension):
    the file must exist relative to the repo root or the doc's
    directory. Spans with placeholder syntax (<...>, *, $, spaces) and
    generated paths (build/...) are skipped.

Pure stdlib, one line per violation, non-zero exit on any. Keeps
docs/scaling.md-style cross-linked documentation from drifting as
files move — the docs counterpart of g5lint.
"""

import argparse
import os
import re
import sys

# Inline-code spans are treated as path references only with these
# extensions — prose like `a/b` or expressions stay exempt.
_PATH_EXTS = (
    ".cpp", ".hpp", ".h", ".c", ".py", ".md", ".json", ".jsonl",
    ".txt", ".yml", ".yaml", ".cmake", ".csv", ".sh",
)

# Generated or illustrative path prefixes that need not exist in the tree.
_SKIP_PREFIXES = ("build/", "http://", "https://", "out/", "/tmp/")

_LINK_RE = re.compile(r"(?<!\!)\[([^\]]*)\]\(([^)\s]+)\)")
_CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^\s*(```|~~~)")


def github_anchor(heading, seen):
    """GitHub's heading -> fragment algorithm (gollum/tocify variant)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # unwrap code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    anchor = text.replace(" ", "-")
    n = seen.get(anchor, 0)
    seen[anchor] = n + 1
    return anchor if n == 0 else f"{anchor}-{n}"


def heading_anchors(md_path):
    """All valid fragment targets of a markdown file."""
    anchors, seen = set(), {}
    in_fence = False
    with open(md_path, encoding="utf-8") as f:
        for line in f:
            if _FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = _HEADING_RE.match(line)
            if m:
                anchors.add(github_anchor(m.group(2), seen))
    return anchors


def strip_fences(text):
    """Markdown with fenced code blocks blanked (links inside code are
    examples, not references)."""
    out, in_fence = [], False
    for line in text.splitlines():
        if _FENCE_RE.match(line):
            in_fence = not in_fence
            out.append("")
            continue
        out.append("" if in_fence else line)
    return "\n".join(out)


def looks_like_path(span):
    """Would a human read this inline-code span as a repo file path?"""
    if "/" not in span:
        return False
    if any(c in span for c in "<>*$ {}()|\\\"'=,"):
        return False
    # file.cpp:123 references resolve to the file part.
    span = span.split(":", 1)[0]
    if span.startswith(_SKIP_PREFIXES) or span.startswith("-"):
        return False
    return span.endswith(_PATH_EXTS)


def check_file(md_path, root, anchors_cache):
    errors = []
    doc_dir = os.path.dirname(md_path)
    rel = os.path.relpath(md_path, root)
    text = strip_fences(open(md_path, encoding="utf-8").read())

    def resolve(target):
        """A reference may be relative to the doc, to the repo root, or
        an include-style path under src/ (`grape/config.hpp`)."""
        for base in (doc_dir, root, os.path.join(root, "src")):
            p = os.path.normpath(os.path.join(base, target))
            if os.path.exists(p):
                return p
        return None

    for m in _LINK_RE.finditer(text):
        target = m.group(2)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        if path_part:
            resolved = resolve(path_part)
            if resolved is None:
                errors.append(f"{rel}: broken link target '{target}'")
                continue
        else:
            resolved = md_path  # same-file anchor
        if fragment:
            if not resolved.endswith(".md"):
                continue
            if resolved not in anchors_cache:
                anchors_cache[resolved] = heading_anchors(resolved)
            if fragment not in anchors_cache[resolved]:
                errors.append(
                    f"{rel}: broken anchor '#{fragment}' in link '{target}' "
                    f"(no such heading in {os.path.relpath(resolved, root)})")

    for m in _CODE_SPAN_RE.finditer(text):
        span = m.group(1)
        if not looks_like_path(span):
            continue
        path = span.split(":", 1)[0]
        if resolve(path) is None:
            errors.append(f"{rel}: referenced path '{path}' does not exist")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("root", nargs="?", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--files", nargs="*", default=None,
                    help="explicit markdown files (default: README.md "
                         "and docs/*.md under ROOT)")
    args = ap.parse_args()
    root = os.path.abspath(args.root)

    if args.files:
        files = [os.path.abspath(f) for f in args.files]
    else:
        files = [os.path.join(root, "README.md")]
        docs = os.path.join(root, "docs")
        if os.path.isdir(docs):
            files += sorted(
                os.path.join(docs, f) for f in os.listdir(docs)
                if f.endswith(".md"))

    errors, checked = [], 0
    anchors_cache = {}
    for f in files:
        if not os.path.exists(f):
            errors.append(f"{os.path.relpath(f, root)}: file not found")
            continue
        errors.extend(check_file(f, root, anchors_cache))
        checked += 1

    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s) in {checked} file(s)",
              file=sys.stderr)
        return 1
    print(f"check_docs: OK ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
