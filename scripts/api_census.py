#!/usr/bin/env python3
"""Caller census: every `pub` item of `crates/*/src` needs a caller.

Prints each `pub fn|struct|enum|trait|const|type` (bins excluded) whose name
is referenced nowhere but at its definition, in re-exports, and in its own
crate's `#[cfg(test)]` items (a file declared `#[cfg(test)] mod name;` is
one) and `tests/` directory. Comments and string literals are stripped
first, so a doc or message mention is not a caller. Callers are: non-test code of any
crate, every crate's bins, root `src/`, `tests/` and `examples/`, and
`benchmarks/e2e/src`. Matching is by name, so an item sharing its name with
one that has callers (`new`, `len`) is never listed.

It also prints each variant of a `pub enum` that no caller names as
`Enum::Variant` — the same callers, plus the enum's own file outside its
`Display` impls: a variant only its `Display` arm and unit tests mention is
one nothing constructs or matches.

Exit status 1 when anything is listed: delete the item, make it
`pub(crate)`, gate a test oracle `#[cfg(test)]`, or add it to EXEMPT with
the reason it stays.
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXEMPT = {
    # name: why it stays `pub` without a caller in this repository
    "read_raw_f64_2d": "lcc_grid::io — the only way outside (SDRBench-layout) data enters; ROADMAP 'Parked'",
    "read_raw_f64_3d": "lcc_grid::io — as read_raw_f64_2d, for volumes",
    "write_raw_f64": "lcc_grid::io — writes the layout the two readers read",
}

ITEM = re.compile(r"^\s*pub (?:const |unsafe )*(fn|struct|enum|trait|const|type) (\w+)", re.M)
# Comments and string literals: mentions that call nothing.
NOT_CODE = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"', re.S)
REEXPORT = re.compile(r"\bpub use [^;]*;")
# An `impl … Display for T` block (rustfmt layout: it ends at a `}` in column 0).
DISPLAY_IMPL = re.compile(r"^impl\b[^{\n]*\bDisplay for [^{\n]*\{.*?^\}", re.M | re.S)
# A whole file of test code: `#[cfg(test)]` (and further attributes) over `mod name;`.
TEST_MOD = re.compile(r"^[ \t]*#\[cfg\(test\)\][ \t]*\n(?:[ \t]*#\[[^\n]*\n)*[ \t]*(?:pub(?:\([^)]*\))? )?mod (\w+);", re.M)


def strip_tests(text):
    """Drop every item that follows a `#[cfg(test)]` line (rustfmt layout:
    the item ends at a `;` on its first line or at a `}` at its own indent)."""
    out, lines, i = [], text.split("\n"), 0
    while i < len(lines):
        gate = re.match(r"^(\s*)#\[cfg\(test\)\]\s*$", lines[i])
        if not gate:
            out.append(lines[i])
            i += 1
            continue
        i += 1
        while i < len(lines) and lines[i].lstrip().startswith("#["):
            i += 1
        if i < len(lines) and not lines[i].rstrip().endswith(";"):
            while i < len(lines) and lines[i].rstrip() != gate.group(1) + "}":
                i += 1
        i += 1
    return "\n".join(out)


def test_module_paths(path):
    """Path prefixes of the modules `path` declares `#[cfg(test)] mod name;`
    (`name.rs`, or everything under `name/`): test code like an inline
    `#[cfg(test)] mod tests { … }`, though it sits in a file of its own."""
    text = NOT_CODE.sub("", open(path, encoding="utf-8").read())
    stem, base = os.path.splitext(path)[0], os.path.dirname(path)
    if os.path.basename(path) not in ("lib.rs", "mod.rs", "main.rs"):
        base = stem
    return [os.path.join(base, name) for name in TEST_MOD.findall(text)]


def enum_variants(text):
    """`(enum, variant)` for every variant of every `pub enum` in `text`."""
    found = []
    for match in re.finditer(r"^\s*pub enum (\w+)[^{;]*\{", text, re.M):
        depth, decls, at = 0, [""], match.end()
        while depth >= 0:
            c = text[at]
            depth += c in "([{"
            depth -= c in ")]}"
            if depth == 0 and c not in ")]}":
                if c == ",":
                    decls.append("")
                else:
                    decls[-1] += c
            at += 1
        for decl in decls:
            name = re.match(r"[#\s]*(\w+)", decl)
            if name:
                found.append((match.group(1), name.group(1)))
    return found


def read(path, tests=False):
    text = NOT_CODE.sub("", open(path, encoding="utf-8").read())
    return text if tests else strip_tests(text)


def main():
    crates = sorted(os.listdir(os.path.join(ROOT, "crates")))
    # crate -> {path: non-test library text}; all caller text outside crate libraries
    lib, callers = {}, []
    for crate in crates:
        src = os.path.join(ROOT, "crates", crate, "src")
        paths = sorted(glob.glob(os.path.join(src, "**", "*.rs"), recursive=True))
        bins = [p for p in paths if p.startswith(os.path.join(src, "bin") + os.sep)]
        gated = [prefix for p in paths for prefix in test_module_paths(p)]
        tests = [p for p in paths if any(p == g + ".rs" or p.startswith(g + os.sep) for g in gated)]
        lib[crate] = {p: read(p) for p in paths if p not in bins + tests}
        callers += [read(p, tests=True) for p in bins]
    for pattern in ("src", "tests", "examples", "benchmarks/e2e/src"):
        paths = glob.glob(os.path.join(ROOT, pattern, "**", "*.rs"), recursive=True)
        callers += [read(p, tests=True) for p in paths]
    callers = "\n".join(callers)

    listed = []
    for crate in crates:
        text = "\n".join(lib[crate].values())
        items = sorted(set(ITEM.findall(text)))
        # The crate's own code calls an item when it names it beyond the one
        # mention that defines it; a re-export names it without calling it.
        own = REEXPORT.sub("", text)
        others = callers + "\n" + "\n".join(
            t for name, files in lib.items() if name != crate for t in files.values()
        )
        for kind, name in items:
            word = re.compile(r"\b%s\b" % re.escape(name))
            if name not in EXEMPT and len(word.findall(own)) < 2 and not word.search(others):
                listed.append(f"{crate}: pub {kind} {name}")
        for path, body in lib[crate].items():
            # Callers of a variant: every other file, and its own file bar
            # the `Display` impls, whose arms name every variant.
            elsewhere = DISPLAY_IMPL.sub("", body) + "\n" + callers + "\n" + "\n".join(
                t for files in lib.values() for p, t in files.items() if p != path
            )
            for enum, variant in enum_variants(body):
                named = re.compile(r"\b%s::%s\b" % (enum, variant))
                if f"{enum}::{variant}" not in EXEMPT and not named.search(elsewhere):
                    listed.append(f"{crate}: variant {enum}::{variant}")
    for line in listed:
        print(line)
    print("exempt:")
    for name, why in EXEMPT.items():
        print(f"  {name} — {why}")
    return 1 if listed else 0

if __name__ == "__main__":
    sys.exit(main())
