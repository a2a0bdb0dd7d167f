#!/usr/bin/env python3
"""CI docs check: EXPERIMENTS.md quotes `repro`, byte for byte.

    check_docs.py
    check_docs.py --self-test

Each paper experiment's measured side in EXPERIMENTS.md is the verbatim
stdout of `repro <exp>` at its default size, in a fenced block right after
a `<!-- repro: <exp> -->` marker.  The check runs every experiment that
`repro`'s usage line names and fails, printing a unified diff, when a
block differs from the binary's output, when an experiment has no marked
block, when an experiment has two, or when a marker names an experiment
`repro` does not have.

Exit code 0 = every block matches.  Any failure prints each problem and
exits 1.
"""

import difflib
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "EXPERIMENTS.md"
REPRO = ["cargo", "run", "--release", "--offline", "-q", "-p", "intellog-bench", "--bin", "repro", "--"]

# A marker line, the opening fence on the next line, the body, and the first
# line that is a bare closing fence.
BLOCK = re.compile(r"^<!-- repro: (\S+) -->\n```[a-z]*\n(.*?)^```$", re.M | re.S)


def blocks(text):
    """`(experiment, body)` for every marked block, in document order."""
    return [(m.group(1), m.group(2)) for m in BLOCK.finditer(text)]


def check(text, names, run):
    """Every problem as a string; `run(name)` is the experiment's stdout."""
    problems = []
    found = {}
    for name, body in blocks(text):
        if name not in names:
            problems.append(f"marker names '{name}', which repro does not have")
        elif name in found:
            problems.append(f"'{name}' has more than one marked block")
        found.setdefault(name, body)
    for name in names:
        if name not in found:
            problems.append(f"'{name}' has no `<!-- repro: {name} -->` block")
            continue
        want = run(name)
        if found[name] != want:
            diff = difflib.unified_diff(
                found[name].splitlines(keepends=True),
                want.splitlines(keepends=True),
                f"EXPERIMENTS.md ({name})",
                f"repro {name}",
            )
            problems.append(f"'{name}' differs from the binary:\n" + "".join(diff))
    return problems


def repro_names():
    """The experiment names, read off the usage line `repro` prints when it
    is given none."""
    out = subprocess.run(REPRO, cwd=REPO, capture_output=True, text=True)
    m = re.search(r"usage: repro <([a-z0-9|]+)>", out.stderr)
    if out.returncode != 2 or not m:
        sys.exit(f"repro printed no usage line:\n{out.stderr}")
    return m.group(1).split("|")


def repro(name):
    out = subprocess.run(REPRO + [name], cwd=REPO, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"repro {name} failed:\n{out.stderr}")
    return out.stdout


def self_test() -> int:
    """The checked-in document's own blocks stand in for the binary, so the
    untouched document passes. Then each block in turn has one digit
    changed, and is removed, and each time exactly that experiment must
    fail; a changed digit must show in the diff beside the binary's line.
    A duplicated block and a marker no experiment has must fail too."""
    text = DOC.read_text()
    outputs = dict(blocks(text))
    names = list(outputs)
    if len(names) < 6:
        print(f"self-test FAIL: only {len(names)} marked blocks in EXPERIMENTS.md")
        return 1
    bad = 0

    def expect(case, doc, want):
        nonlocal bad
        got = check(doc, names, outputs.__getitem__)
        if len(got) != 1 or want not in got[0]:
            print(f"self-test FAIL: {case}: expected one problem naming {want!r}, got {got}")
            bad += 1
        return got

    if check(text, names, outputs.__getitem__):
        print("self-test FAIL: the untouched document does not pass")
        bad += 1
    cases = 1
    for m in BLOCK.finditer(text):
        name, body = m.group(1), m.group(2)
        digit = re.search(r"\d", body)
        at = m.start(2) + digit.start()
        changed = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]
        got = expect(f"one digit of {name}", changed, f"'{name}' differs")
        line = body[body.rfind("\n", 0, digit.start()) + 1 :].split("\n", 1)[0]
        if got and not ("\n+" + line in got[0] and "\n-" in got[0]):
            print(f"self-test FAIL: the diff for {name} does not show the changed line")
            bad += 1
        expect(f"{name} removed", text[: m.start()] + text[m.end() :], f"'{name}' has no")
        cases += 2
    first = next(BLOCK.finditer(text))
    expect("a second block", f"{text}\n{first.group(0)}\n", "more than one")
    unknown = text + "\n<!-- repro: table99 -->\n```text\nx\n```\n"
    expect("an unknown experiment", unknown, "'table99'")
    cases += 2
    if bad:
        return 1
    print(f"self-test OK: {cases} cases")
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if args:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    names = repro_names()
    problems = check(DOC.read_text(), names, repro)
    for p in problems:
        print(f"FAIL  {p}")
    if problems:
        print(f"\n{len(problems)} problem(s): run the named experiment and paste its output")
        return 1
    print(f"EXPERIMENTS.md quotes all {len(names)} experiments of repro byte for byte")
    return 0


if __name__ == "__main__":
    sys.exit(main())
