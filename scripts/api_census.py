#!/usr/bin/env python3
"""Caller census: every `pub` item of `crates/*/src` needs a caller.

Prints each `pub fn|struct|enum|trait|const|type` (bins excluded) whose name
is referenced nowhere but at its definition, in re-exports, and in its own
crate's `#[cfg(test)]` items (a file declared `#[cfg(test)] mod name;` is
one) and `tests/` directory. Comments and string literals are stripped
first, so a doc or message mention is not a caller. Callers are: non-test code of any
crate, every crate's bins, root `src/`, `tests/` and `examples/`, and
`benchmarks/e2e/src`. Matching is by name, so an item sharing its name with
one that has callers (`new`, `len`) is never listed. A `pub fn` declared
inside an `impl` block is a method: only `.name` (a call, or a field of the
same name) and `::name` count, so a bare mention of the same word (`std`,
`arg`) does not.

It also prints each variant of a `pub enum` that no caller names as
`Enum::Variant` — the same callers, plus the enum's own file outside its
`Display` impls: a variant only its `Display` arm and unit tests mention is
one nothing constructs or matches.

And it prints each declared dependency of a `crates/*/Cargo.toml` that
the crate never names: a `[dependencies]` entry its `src/` does not
mention, or a `[dev-dependencies]` entry neither `src/` nor `tests/` does.

And it holds the workspace's `unsafe_code` waivers to UNSAFE_WAIVERS: each
`crates/*/src` file that carries `allow(unsafe_code)` must be listed there
with the kernel it serves, and each listed file must still carry one. A
SIMD twin that joins or leaves the workspace edits that list and says why.

Exit status 1 when anything is listed: delete the item, make it
`pub(crate)`, gate a test oracle `#[cfg(test)]`, or add it to EXEMPT with
the reason it stays; drop an unnamed dependency from its manifest; add or
drop an UNSAFE_WAIVERS entry.
"""

import glob
import os
import re
import sys
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

EXEMPT = {
    # name: why it stays `pub` without a caller in this repository
    "read_raw_f64_2d": "lcc_grid::io — the only way outside (SDRBench-layout) data enters; ROADMAP 'Parked'",
    "write_raw_f64": "lcc_grid::io — writes the layout read_raw_f64_2d reads",
}

UNSAFE_WAIVERS = {
    # file: the AVX2 kernel whose intrinsics the waiver covers
    "crates/geostat/src/simd.rs": "window statistics on quads and the global variogram band sweep",
    "crates/lossless/src/rans.rs": "rANS 8-way interleaved decode",
    "crates/lossless/src/round.rs": "rounding quantizer (MGARD coefficients) and the four-lane round of the SZ Lorenzo band",
    "crates/sz/src/lorenzo.rs": "SZ Lorenzo runs, encode",
    "crates/sz/src/predictor.rs": "SZ mode selection",
    "crates/synth/src/simd.rs": "FFT row and column strips of the Gaussian field synthesis",
}
WAIVER = re.compile(r"#!?\[allow\([^)]*\bunsafe_code\b")

ITEM = re.compile(r"^\s*pub (?:const |unsafe )*(fn|struct|enum|trait|const|type) (\w+)", re.M)
# Comments and string literals: mentions that call nothing.
NOT_CODE = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"', re.S)
REEXPORT = re.compile(r"\bpub use [^;]*;")
# An `impl` block (rustfmt layout: `{}` on its line, or a `}` at its indent).
IMPL = re.compile(r"^([ \t]*)impl\b[^;{]*\{(?:\}|.*?^\1\})", re.M | re.S)
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


def unnamed_dependencies(crate):
    """`crate → dependency` for each manifest entry the crate's code never names."""
    base = os.path.join(ROOT, "crates", crate)
    with open(os.path.join(base, "Cargo.toml"), "rb") as manifest:
        declared = tomllib.load(manifest)

    def text(*dirs):
        paths = [p for d in dirs for p in glob.glob(os.path.join(base, d, "**", "*.rs"), recursive=True)]
        return "\n".join(read(p, tests=True) for p in paths)

    unnamed = []
    for table, dirs in (("dependencies", ("src",)), ("dev-dependencies", ("src", "tests"))):
        code = text(*dirs)
        for dep in declared.get(table, {}):
            if not re.search(r"\b%s\b" % re.escape(dep.replace("-", "_")), code):
                unnamed.append(f"{crate}: [{table}] {dep} is never named")
    return unnamed


def unsafe_waivers():
    """A line for each file whose `unsafe_code` waivers UNSAFE_WAIVERS does
    not account for: a waiver in an unlisted file, or a listed file without one."""
    waived = {
        os.path.relpath(p, ROOT)
        for p in glob.glob(os.path.join(ROOT, "crates", "*", "src", "**", "*.rs"), recursive=True)
        if WAIVER.search(read(p, tests=True))
    }
    listed = UNSAFE_WAIVERS.keys()
    return [f"{p}: allow(unsafe_code) outside UNSAFE_WAIVERS" for p in sorted(waived - listed)] + [
        f"{p}: in UNSAFE_WAIVERS but carries no allow(unsafe_code)" for p in sorted(listed - waived)
    ]


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
        free = set(ITEM.findall(IMPL.sub("", text)))
        # The crate's own code calls an item when it names it beyond the one
        # mention that defines it; a re-export names it without calling it.
        own = REEXPORT.sub("", text)
        others = callers + "\n" + "\n".join(
            t for name, files in lib.items() if name != crate for t in files.values()
        )
        for kind, name in items:
            if kind == "fn" and (kind, name) not in free:
                # A method: its definition is neither a `.name` nor a `::name`.
                call = re.compile(r"\.%s\b|::%s\b" % (re.escape(name), re.escape(name)))
                called = call.search(own) or call.search(others)
            else:
                word = re.compile(r"\b%s\b" % re.escape(name))
                called = len(word.findall(own)) >= 2 or word.search(others)
            if name not in EXEMPT and not called:
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
        listed += unnamed_dependencies(crate)
    listed += unsafe_waivers()
    for line in listed:
        print(line)
    print("exempt:")
    for name, why in EXEMPT.items():
        print(f"  {name} — {why}")
    print("unsafe waivers:")
    for path, kernel in UNSAFE_WAIVERS.items():
        print(f"  {path} — {kernel}")
    return 1 if listed else 0

if __name__ == "__main__":
    sys.exit(main())
