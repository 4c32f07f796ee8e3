#!/usr/bin/env python3
"""Documentation gate for CI (.github/workflows/ci.yml, `docs` job).

Checks, all hard failures:

1. Relative markdown links in README.md, EXPERIMENTS.md, docs/*.md and
   specs/README.md must resolve to files inside the repository (no 404s
   within the tree). External (http/https/mailto) links and pure
   #anchors are skipped.
2. Every `specs/<name>.spec` path mentioned anywhere in those documents
   (inline code included, not just markdown links) must exist — the
   runbook is written around `ucr_cli --spec=...`, so a renamed or
   deleted catalogue file must fail the docs job.
3. The reverse: every `specs/*.spec` file on disk must be referenced
   from at least one of those documents — an undocumented sweep is a
   sweep nobody will run.
4. Every section pointer of the form `docs/<file>.md "Section title"`
   in a source comment (src/, tests/, bench/, tools/) must name a real
   markdown heading of that document — e.g. the RNG helpers cite
   docs/ARCHITECTURE.md "Pre-drawn window slots", so renaming that
   section without updating the pointers fails here.
5. Every backticked `run_*_engine*` identifier in those documents must
   be declared in src/sim/*.hpp — a removed or renamed engine entry point
   cannot linger in the docs.
6. The CSV columns of the table in docs/ARCHITECTURE.md "Result schema"
   must equal the header line of
   tests/golden/dynamic-arrivals.node.csv.golden plus the trailing
   `spec_hash` column the golden test strips — the documented schema
   cannot drift from the bytes the sinks write.
7. With --cli=<path to ucr_cli>, every protocol name `ucr_cli --list`
   prints must appear as a `## <name>` section heading in
   docs/PROTOCOLS.md — the same contract the tier-1 drift test
   (tests/docs/protocols_doc_test.cpp) enforces, re-checked here from
   the built binary so the docs job cannot pass with a stale catalog.

Exit codes: 0 ok, 1 check failed, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import subprocess
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SPEC_REF_RE = re.compile(r"specs/[A-Za-z0-9._/-]+\.spec")
SECTION_REF_RE = re.compile(r"docs/([A-Za-z0-9._-]+\.md) \"([^\"]+)\"")
HEADING_RE = re.compile(r"^#{1,6} +(.+?)\s*$", re.MULTILINE)
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
ENGINE_NAME_RE = re.compile(r"\brun_\w*_engine\w*")
RESULT_SCHEMA_RE = re.compile(r"^## Result schema\n(.*?)(?=^## )",
                              re.MULTILINE | re.DOTALL)
SCHEMA_ROW_RE = re.compile(r"^\| `([^`]+)` \|", re.MULTILINE)
ENGINE_DECL_RE = re.compile(
    r"^[A-Za-z_][\w:<>]*\s+(run_\w*_engine\w*)\s*\(", re.MULTILINE)


def iter_doc_files(root: pathlib.Path):
    for name in ("README.md", "EXPERIMENTS.md", "specs/README.md"):
        path = root / name
        if path.is_file():
            yield path
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def check_links(root: pathlib.Path) -> list[str]:
    errors = []
    for doc in iter_doc_files(root):
        text = doc.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (doc.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(root)}: broken relative link "
                    f"'{target}'"
                )
    return errors


def check_spec_refs(root: pathlib.Path) -> list[str]:
    """Every specs/*.spec path a document mentions must exist on disk."""
    errors = []
    for doc in iter_doc_files(root):
        text = doc.read_text(encoding="utf-8")
        for ref in sorted(set(SPEC_REF_RE.findall(text))):
            if not (root / ref).is_file():
                errors.append(
                    f"{doc.relative_to(root)}: references missing spec "
                    f"file '{ref}'"
                )
    return errors


def check_spec_coverage(root: pathlib.Path) -> list[str]:
    """Every specs/*.spec file on disk must be referenced from >= 1 doc."""
    specs_dir = root / "specs"
    if not specs_dir.is_dir():
        return []
    referenced = set()
    for doc in iter_doc_files(root):
        referenced.update(SPEC_REF_RE.findall(
            doc.read_text(encoding="utf-8")))
    errors = []
    for spec in sorted(specs_dir.rglob("*.spec")):
        rel = spec.relative_to(root).as_posix()
        if rel not in referenced:
            errors.append(
                f"{rel}: not referenced from any document "
                "(README.md, EXPERIMENTS.md, specs/README.md, docs/*.md)"
            )
    return errors


def check_section_refs(root: pathlib.Path) -> list[str]:
    """Every `docs/<file>.md "Section"` pointer in a source comment must
    name a real heading of that document."""
    headings: dict[str, set[str]] = {}
    errors = []
    for tree in ("src", "tests", "bench", "tools"):
        base = root / tree
        if not base.is_dir():
            continue
        for ext in ("*.hpp", "*.cpp", "*.py"):
            for source in sorted(base.rglob(ext)):
                text = source.read_text(encoding="utf-8",
                                        errors="replace")
                for doc_name, section in SECTION_REF_RE.findall(text):
                    if doc_name not in headings:
                        doc = root / "docs" / doc_name
                        headings[doc_name] = (
                            set(HEADING_RE.findall(
                                doc.read_text(encoding="utf-8")))
                            if doc.is_file() else set()
                        )
                    if section not in headings[doc_name]:
                        errors.append(
                            f"{source.relative_to(root)}: cites "
                            f"docs/{doc_name} \"{section}\", which is "
                            "not a heading there"
                        )
    return errors


def check_engine_refs(root: pathlib.Path) -> list[str]:
    """Every engine entry point a document names in backticks must be
    declared in a src/sim header."""
    declared = set()
    for header in sorted((root / "src" / "sim").glob("*.hpp")):
        declared.update(
            ENGINE_DECL_RE.findall(header.read_text(encoding="utf-8")))
    errors = []
    for doc in iter_doc_files(root):
        text = doc.read_text(encoding="utf-8")
        named = {name for span in CODE_SPAN_RE.findall(text)
                 for name in ENGINE_NAME_RE.findall(span)}
        for name in sorted(named - declared):
            errors.append(
                f"{doc.relative_to(root)}: names engine '{name}', which no "
                f"src/sim/*.hpp declares"
            )
    return errors


def check_result_schema(root: pathlib.Path) -> list[str]:
    """The documented result columns must be the golden CSV header's."""
    doc = root / "docs" / "ARCHITECTURE.md"
    golden = root / "tests" / "golden" / "dynamic-arrivals.node.csv.golden"
    match = RESULT_SCHEMA_RE.search(doc.read_text(encoding="utf-8"))
    if match is None:
        return ["docs/ARCHITECTURE.md: no '## Result schema' section"]
    documented = SCHEMA_ROW_RE.findall(match.group(1))
    with golden.open(encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",") + ["spec_hash"]
    if documented != header:
        return [
            "docs/ARCHITECTURE.md \"Result schema\": columns "
            f"{','.join(documented)} differ from the CSV header "
            f"{','.join(header)} ({golden.relative_to(root)} plus "
            "spec_hash)"
        ]
    return []


def registered_names(cli: str) -> list[str]:
    out = subprocess.run(
        [cli, "--list"], check=True, capture_output=True, text=True
    ).stdout
    names = []
    for line in out.splitlines():
        if line.startswith("  "):
            names.append(line.strip())
    if not names:
        raise RuntimeError(f"'{cli} --list' printed no protocol names")
    return names


def check_protocol_catalog(root: pathlib.Path, cli: str) -> list[str]:
    catalog = root / "docs" / "PROTOCOLS.md"
    if not catalog.is_file():
        return ["docs/PROTOCOLS.md is missing"]
    text = catalog.read_text(encoding="utf-8")
    errors = []
    for name in registered_names(cli):
        if f"## {name}\n" not in text:
            errors.append(
                f"docs/PROTOCOLS.md: missing '## {name}' section for "
                f"registered protocol '{name}'"
            )
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        default=str(pathlib.Path(__file__).resolve().parent.parent),
        help="repository root (default: parent of tools/)",
    )
    parser.add_argument(
        "--cli",
        help="path to a built ucr_cli; enables the protocol-catalog check",
    )
    args = parser.parse_args()

    root = pathlib.Path(args.root).resolve()
    if not (root / "README.md").is_file():
        print(f"error: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    errors = (check_links(root) + check_spec_refs(root)
              + check_spec_coverage(root) + check_section_refs(root)
              + check_engine_refs(root) + check_result_schema(root))
    if args.cli:
        try:
            errors += check_protocol_catalog(root, args.cli)
        except (OSError, subprocess.CalledProcessError, RuntimeError) as e:
            print(f"error: protocol catalog check failed to run: {e}",
                  file=sys.stderr)
            return 2

    for error in errors:
        print(f"FAIL: {error}")
    if errors:
        return 1
    checked = ("links + spec refs + spec coverage + section refs"
               " + engine refs + result schema") + (
        " + protocol catalog" if args.cli else ""
    )
    print(f"docs check ok ({checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
