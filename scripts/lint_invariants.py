#!/usr/bin/env python3
"""CI-gated concurrency-invariant linter (DESIGN.md §10).

Eight rules over the workspace's Rust sources:

  R1  raw-sync     `std::sync` / `std::thread` are forbidden outside the
                   facade (`crates/sync/`) and the vendored dependency
                   stubs — all workspace concurrency must route through
                   the `sync` facade or the model checker cannot see it.
                   Parallelism included: the one parallel map is
                   `sync::par_map_ordered`, so no pipeline crate opens a
                   `std::thread::scope` of its own.
  R2  safety-doc   every `unsafe` block / fn / impl needs a comment
                   containing `SAFETY` within the 5 preceding lines.
  R3  forbid-attr  every crate root (`crates/*/src/lib.rs`, `src/main.rs`)
                   must carry `#![forbid(unsafe_code)]` unless listed in
                   R3_EXEMPT — one entry, `crates/sync/src/lib.rs`, for the
                   `poll(2)` wrapper the gateway's loop sleeps in. `forbid`
                   cannot be lifted for one module, so an exempt root must
                   carry `#![deny(unsafe_code)]` instead and its crate
                   exactly one `allow(unsafe_code)`: one module may hold
                   `unsafe`, the rest of the crate still cannot. The
                   vendor/ stubs of external crates are skipped.
  R4  no-unwrap    `.unwrap()` / `.expect(` are forbidden in the serving
                   request-path modules (serve data plane + gateway event
                   loop) outside their `#[cfg(test)]` tail — a malformed
                   request must never abort a shard or the gateway.
  R5  raw-net      `std::net`, `std::os::unix::net` and `std::os::fd` are
                   forbidden outside the gateway's poll core
                   (`crates/serve/src/gateway/poll.rs`, which owns every server
                   socket and the wake pair), the `poll(2)` wrapper
                   (`crates/sync/src/poll.rs`, which takes descriptors) and
                   the blocking test/replay client
                   (`crates/serve/src/client.rs`) — every server-side
                   socket must go through the poller's nonblocking
                   readiness API, where the never-block rules and the
                   sleep's interest rules are enforced in one place.
  R6  alloc        per-line allocation is forbidden inside declared
                   ingest-hot regions (`// lint: ingest-hot(begin)` …
                   `// lint: ingest-hot(end)`): tokenise, intern-lookup
                   and match code on the zero-alloc byte-level ingest
                   path, the gateway's line loop and router and the
                   shard's per-record body must use caller/scratch
                   buffers. Patterns caught:
                   `.to_string()`, `String::from(`, `String::new()`,
                   `.to_owned()`, `Vec::new()`, `vec![`, `.to_vec()`,
                   `format!(`, `Box::new(`, `with_capacity(`. Escape per
                   site with `// lint: allow(alloc)` plus a reason (a
                   path that is rare by construction).
  R7  exposition   the literal `# TYPE ` may appear in non-test Rust only
                   under `crates/obs/`: the Prometheus text format lives in
                   one module (`obs::render_series`), and whoever exposes
                   metrics hands it families instead of writing the text
                   again. Test directories and `#[cfg(test)]` tails, which
                   parse the format to check it, are exempt.
  R8  ffi          `extern "<abi>"` blocks and functions may appear only
                   under `crates/sync/`: the workspace has one foreign
                   call (`poll`, declared by link name — no `libc` crate)
                   and the facade every blocking operation goes through
                   is where it lives. `extern crate` is not FFI.

Escape hatch: a `// lint: allow(<rule>)` comment on the offending line or
within the 5 lines above suppresses that rule there, with a reason: the
client side of a loopback socket (`std-net`), a path that is rare
by construction inside an ingest-hot region (`alloc`), and the one counting
global allocator that shares an atomic across threads
(`serve/tests/loop_zero_alloc.rs`, `std-sync`: it runs below the facade,
whose model-check hooks it must not re-enter).

Exit status: 0 clean, 1 violations (printed as file:line: rule message).
`--self-test` instead verifies, on synthetic sources, that every rule
both fires on a violation and stays silent on compliant code.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# R1: directories whose files may touch std::sync / std::thread directly.
RAW_SYNC_WHITELIST = ("crates/sync/",)
VENDOR_EXEMPT_PREFIX = "vendor/"  # stubs of external crates

R1_PATTERN = re.compile(r"\bstd\s*::\s*(sync|thread)\b")

# R2: `unsafe` keyword opening a block, fn definition, impl or trait —
# not the `unsafe fn(…)` *type* in a field/parameter position.
R2_PATTERN = re.compile(r"\bunsafe\s+(fn\s+\w|impl\b|trait\b)|\bunsafe\s*\{")

# R4: serving request-path modules — the serve data plane plus the whole
# gateway event loop (store/replay/client are offline or test-side paths).
R4_MODULES = (
    "crates/serve/src/shard.rs",
    "crates/serve/src/queue.rs",
    "crates/serve/src/sink.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/ring.rs",
    "crates/serve/src/gateway/mod.rs",
    "crates/serve/src/gateway/conn.rs",
    "crates/serve/src/gateway/poll.rs",
    "crates/serve/src/gateway/wake.rs",
)
R4_PATTERN = re.compile(r"\.\s*(unwrap\s*\(\s*\)|expect\s*\()")

# R5: modules allowed to touch sockets and descriptors directly. The poller
# owns every nonblocking server socket and the wake pair; the sync module
# wraps the system call that sleeps on their descriptors; the client is the
# blocking caller side.
RAW_NET_WHITELIST = (
    "crates/serve/src/gateway/poll.rs",
    "crates/sync/src/poll.rs",
    "crates/serve/src/client.rs",
)
R5_PATTERN = re.compile(
    r"\bstd\s*::\s*(net\b|os\s*::\s*(unix\s*::\s*net|fd)\b)"
)

# R3: crate roots that may say `deny` where the others say `forbid`.
R3_EXEMPT: tuple[str, ...] = (
    # The sync facade holds the workspace's only FFI and only `unsafe`: the
    # safe wrapper over poll(2) in `crates/sync/src/poll.rs`. std can block
    # on one socket or on a condvar, never on several sockets at once, and
    # an event loop that cannot sleep on its sockets answers in multiples of
    # its back-off (DESIGN.md §8). The exemption is one module wide: the
    # root must deny, and the crate may allow once.
    "crates/sync/src/lib.rs",
)
R3_DENY = "#![deny(unsafe_code)]"
R3_ALLOW = re.compile(r"\ballow\s*\(\s*unsafe_code\s*\)")

# R8: the one directory that may declare foreign items. Matched on code with
# string literals blanked, so `extern "C"` reads `extern ""`; a bare
# `extern {` is the C ABI too.
FFI_HOME = "crates/sync/"
R8_PATTERN = re.compile(r'\bextern\s*(""|\{)')

# R6: allocation patterns forbidden inside `// lint: ingest-hot(begin/end)`
# regions. `.clone()` is deliberately absent: cloning a `Copy` span or id
# is free and common; the listed constructors are the ones that heap-allocate.
R6_PATTERN = re.compile(
    r"\.\s*to_string\s*\(\s*\)"
    r"|\bString\s*::\s*(from|new)\b"
    r"|\.\s*to_owned\s*\(\s*\)"
    r"|\bVec\s*::\s*new\b"
    r"|\bvec!"
    r"|\.\s*to_vec\s*\(\s*\)"
    r"|\bformat!"
    r"|\bBox\s*::\s*new\b"
    r"|\bwith_capacity\s*\("
)
INGEST_BEGIN = re.compile(r"//\s*lint:\s*ingest-hot\(begin\)")
INGEST_END = re.compile(r"//\s*lint:\s*ingest-hot\(end\)")

# R7: the one crate that may spell the exposition format.
EXPOSITION_HOME = "crates/obs/"
EXPOSITION_LITERAL = "# TYPE "

ALLOW = re.compile(r"//\s*lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
LOOKBACK = 5  # lines of grace for SAFETY comments and allow markers


def strip_noncode(line: str, keep_strings: bool = False) -> str:
    """Remove string literals and line comments so tokens inside them
    (e.g. the word "unsafe" in lognlp's lexicon word list, or `std::sync`
    in a doc comment) don't trip the rules. Block comments are handled
    coarsely per line, which is adequate for this tree's style. With
    `keep_strings` only the comments go (R7 looks for a string literal)."""
    out = []
    i, n = 0, len(line)
    in_str = False
    while i < n:
        c = line[i]
        if in_str:
            if keep_strings:
                out.append(line[i:i + 2] if c == "\\" else c)
            if c == "\\":
                i += 2
                continue
            if c == '"':
                in_str = False
            i += 1
            continue
        if c == '"':
            in_str = True
            # dropped literals leave a placeholder so offsets stay sane
            out.append('"' if keep_strings else '""')
            i += 1
            continue
        if c == "'" and i + 2 < n and line[i + 2] == "'":
            i += 3  # char literal ('x'); lifetimes don't match this shape
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a comment
        out.append(c)
        i += 1
    return "".join(out)


def allowed(lines: list[str], idx: int, rule: str) -> bool:
    """True if an allow marker for `rule` covers line `idx` (0-based)."""
    for j in range(max(0, idx - LOOKBACK), idx + 1):
        m = ALLOW.search(lines[j])
        if m and rule in [r.strip() for r in m.group(1).split(",")]:
            return True
    return False


def has_safety_comment(lines: list[str], idx: int) -> bool:
    for j in range(max(0, idx - LOOKBACK), idx + 1):
        if "SAFETY" in lines[j].upper() and ("//" in lines[j] or "/*" in lines[j]):
            return True
    return False


def rel(path: Path) -> str:
    return path.relative_to(REPO).as_posix()


def rust_sources(root: Path) -> list[Path]:
    skip_dirs = {"target", ".git"}
    out = []
    for p in sorted(root.rglob("*.rs")):
        parts = p.relative_to(root).parts
        if parts and parts[0] in skip_dirs:
            continue
        out.append(p)
    return out


def lint_file(path: Path, relpath: str, violations: list[str]) -> None:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()

    vendored = relpath.startswith(VENDOR_EXEMPT_PREFIX)
    raw_sync_ok = vendored or any(relpath.startswith(w) for w in RAW_SYNC_WHITELIST)
    raw_net_ok = vendored or relpath in RAW_NET_WHITELIST

    # R4 and R7 only apply outside the conventional `#[cfg(test)]` tail.
    r4_active = relpath in R4_MODULES
    r7_active = not (
        vendored
        or relpath.startswith(EXPOSITION_HOME)
        or "tests" in Path(relpath).parts
    )
    test_tail_start = len(lines)
    if r4_active or r7_active:
        for i, line in enumerate(lines):
            if line.strip().startswith("#[cfg(test)]"):
                test_tail_start = i
                break

    in_hot = False
    for i, raw in enumerate(lines):
        # R6 region markers live in comments, so they are read off the raw
        # line before comment stripping.
        if INGEST_BEGIN.search(raw):
            in_hot = True
            continue
        if INGEST_END.search(raw):
            in_hot = False
            continue
        if (
            r7_active
            and i < test_tail_start
            and EXPOSITION_LITERAL in raw
            and EXPOSITION_LITERAL in strip_noncode(raw, keep_strings=True)
            and not allowed(lines, i, "exposition")
        ):
            violations.append(
                f"{relpath}:{i + 1}: [exposition] Prometheus text written "
                "outside crates/obs — hand `obs::render_series` the family"
            )
        code = strip_noncode(raw)
        if not code.strip():
            continue
        if in_hot and R6_PATTERN.search(code):
            if not allowed(lines, i, "alloc"):
                violations.append(
                    f"{relpath}:{i + 1}: [alloc] heap allocation inside an "
                    "ingest-hot region — use scratch/caller buffers, or "
                    "mark the rare path with `// lint: allow(alloc)`"
                )
        if not raw_sync_ok and R1_PATTERN.search(code):
            if not allowed(lines, i, "std-sync"):
                violations.append(
                    f"{relpath}:{i + 1}: [raw-sync] raw std::sync/std::thread — "
                    "use the `sync` facade so the model checker sees this op"
                )
        if not vendored and R2_PATTERN.search(code):
            if not has_safety_comment(lines, i) and not allowed(lines, i, "safety-doc"):
                violations.append(
                    f"{relpath}:{i + 1}: [safety-doc] unsafe without a "
                    f"`// SAFETY:` comment within {LOOKBACK} lines above"
                )
        if r4_active and i < test_tail_start and R4_PATTERN.search(code):
            if not allowed(lines, i, "no-unwrap"):
                violations.append(
                    f"{relpath}:{i + 1}: [no-unwrap] .unwrap()/.expect() on a "
                    "serve request path — handle or count the error instead"
                )
        if not raw_net_ok and R5_PATTERN.search(code):
            if not allowed(lines, i, "std-net"):
                violations.append(
                    f"{relpath}:{i + 1}: [raw-net] raw std::net / "
                    "std::os::unix::net / std::os::fd — sockets and "
                    "descriptors belong to the gateway poll core (or the "
                    "blocking client); use the Poller's readiness API"
                )
        if not vendored and not relpath.startswith(FFI_HOME) and R8_PATTERN.search(code):
            if not allowed(lines, i, "ffi"):
                violations.append(
                    f"{relpath}:{i + 1}: [ffi] foreign items outside "
                    "crates/sync — the workspace's one FFI call lives "
                    "behind the sync facade"
                )


def lint_tree(root: Path) -> list[str]:
    violations: list[str] = []
    for path in rust_sources(root):
        lint_file(path, path.relative_to(root).as_posix(), violations)

    # R3: crate roots must forbid unsafe code.
    roots = sorted(root.glob("crates/*/src/lib.rs"))
    roots += [p for p in (root / "src/main.rs",) if p.exists()]
    for r in roots:
        relpath = r.relative_to(root).as_posix()
        if relpath in R3_EXEMPT:
            allows = sum(
                len(R3_ALLOW.findall(strip_noncode(line)))
                for f in sorted(r.parent.rglob("*.rs"))
                for line in f.read_text(encoding="utf-8").splitlines()
            )
            if R3_DENY not in r.read_text(encoding="utf-8") or allows != 1:
                violations.append(
                    f"{relpath}:1: [forbid-attr] an R3_EXEMPT crate root "
                    f"must carry {R3_DENY} and its crate exactly one "
                    f"allow(unsafe_code) (found {allows}) — or come off the "
                    "exempt list and forbid"
                )
            continue
        if "#![forbid(unsafe_code)]" not in r.read_text(encoding="utf-8"):
            violations.append(
                f"{relpath}:1: [forbid-attr] crate root lacks "
                "#![forbid(unsafe_code)] (add it or list the crate in "
                "R3_EXEMPT with a justification)"
            )
    return violations


# ---------------------------------------------------------------------
# Self-test: every rule must fire on a violation and pass on a fix.
# ---------------------------------------------------------------------

def self_test() -> int:
    import tempfile

    cases = {
        "raw-sync fires": (
            "crates/serve/src/bad.rs",
            "use std::sync::Mutex;\n",
            True,
        ),
        "raw-sync respects facade": (
            "crates/serve/src/good.rs",
            "use sync::Mutex;\n",
            False,
        ),
        "raw-sync whitelists the facade crate": (
            "crates/sync/src/facade.rs",
            "use std::sync::Mutex;\n",
            False,
        ),
        "raw-sync whitelists vendor stubs": (
            "vendor/proptest/src/lib.rs",
            "use std::sync::Mutex;\n",
            False,
        ),
        "raw-sync fires on a scope of its own in the trainer": (
            "crates/anomaly/src/train.rs",
            "fn f() { std::thread::scope(|s| { s.spawn(|| ()); }); }\n",
            True,
        ),
        "raw-sync ignores comments and strings": (
            "crates/serve/src/doc.rs",
            '// std::sync is forbidden here\nlet s = "std::thread";\n',
            False,
        ),
        "raw-sync honors allow marker": (
            "crates/serve/src/alloc.rs",
            "// lint: allow(std-sync) — allocator runs below the facade\n"
            "use std::sync::atomic::AtomicU64;\n",
            False,
        ),
        "safety-doc fires": (
            "crates/spell/src/bad.rs",
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            True,
        ),
        "safety-doc accepts documented unsafe": (
            "crates/spell/src/good.rs",
            "// SAFETY: p is valid for reads, checked by the caller.\n"
            "fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            False,
        ),
        "safety-doc skips unsafe fn pointer types": (
            "crates/spell/src/ty.rs",
            "struct C { run: unsafe fn(*const ()) }\n",
            False,
        ),
        "no-unwrap fires on request path": (
            "crates/serve/src/shard.rs",
            "fn f(s: &str) { s.parse::<u8>().unwrap(); }\n",
            True,
        ),
        "no-unwrap spares the test tail": (
            "crates/serve/src/queue.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests { fn g(s: &str) { s.parse::<u8>().unwrap(); } }\n",
            False,
        ),
        "no-unwrap spares unwrap_or": (
            "crates/serve/src/metrics.rs",
            "fn f(s: &str) -> u8 { s.parse().unwrap_or(0) }\n",
            False,
        ),
        "raw-net fires": (
            "crates/serve/src/gateway/mod.rs",
            "use std::net::TcpStream;\n",
            True,
        ),
        "raw-net whitelists the poll core": (
            "crates/serve/src/gateway/poll.rs",
            "use std::net::{TcpListener, TcpStream};\n",
            False,
        ),
        "raw-net whitelists the blocking client": (
            "crates/serve/src/client.rs",
            "use std::net::TcpStream;\n",
            False,
        ),
        "raw-net ignores doc comments": (
            "crates/serve/src/lib.rs",
            "#![forbid(unsafe_code)]\n//! only poll.rs may touch std::net\n",
            False,
        ),
        "raw-net fires in the gateway re-export crate": (
            "crates/gateway/src/lib.rs",
            "#![forbid(unsafe_code)]\nuse std::net::TcpListener;\n",
            True,
        ),
        "raw-net honors allow marker": (
            "crates/serve/src/probe.rs",
            "// lint: allow(std-net) — diagnostic-only resolver\n"
            "use std::net::ToSocketAddrs;\n",
            False,
        ),
        "raw-net fires on descriptors outside the poll core": (
            "crates/serve/src/gateway/mod.rs",
            "use std::os::fd::AsRawFd;\n",
            True,
        ),
        "raw-net fires on unix sockets outside the poll core": (
            "crates/serve/src/gateway/wake.rs",
            "use std::os::unix::net::UnixStream;\n",
            True,
        ),
        "raw-net whitelists the poll core for the wake pair": (
            "crates/serve/src/gateway/poll.rs",
            "use std::os::fd::AsRawFd;\nuse std::os::unix::net::UnixStream;\n",
            False,
        ),
        "raw-net whitelists the poll(2) wrapper": (
            "crates/sync/src/poll.rs",
            "use std::os::fd::RawFd;\n",
            False,
        ),
        "raw-net leaves the rest of std::os alone": (
            "crates/serve/src/store.rs",
            "use std::os::unix::fs::PermissionsExt;\n",
            False,
        ),
        "no-unwrap covers the gateway event loop": (
            "crates/serve/src/gateway/conn.rs",
            "fn f(s: &str) { s.parse::<u8>().unwrap(); }\n",
            True,
        ),
        "forbid-attr fires": (
            "crates/fake/src/lib.rs",
            "pub fn f() {}\n",
            True,
        ),
        "forbid-attr accepts the attribute": (
            "crates/fake/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
            False,
        ),
        "forbid-attr lets the exempt root deny with one allow": (
            "crates/sync/src/lib.rs",
            "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\npub mod poll;\n",
            False,
        ),
        "forbid-attr fires on an exempt root that does not deny": (
            "crates/sync/src/lib.rs",
            "#[allow(unsafe_code)]\npub mod poll;\n",
            True,
        ),
        "forbid-attr fires on a second allow in the exempt crate": (
            "crates/sync/src/lib.rs",
            "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\npub mod poll;\n"
            "#[allow(unsafe_code)]\npub mod more;\n",
            True,
        ),
        "forbid-attr fires on an exempt root with nothing to exempt": (
            "crates/sync/src/lib.rs",
            "#![deny(unsafe_code)]\n// no module needs allow(unsafe_code) any more\n",
            True,
        ),
        "ffi fires outside the sync facade": (
            "crates/serve/src/gateway/poll.rs",
            'extern "C" {\n    fn poll(fds: *mut u8, n: u64, t: i32) -> i32;\n}\n',
            True,
        ),
        "ffi fires on a bare extern block and an extern fn": (
            "crates/serve/src/hook.rs",
            'extern {\n    fn getpid() -> i32;\n}\npub extern "C" fn hook() {}\n',
            True,
        ),
        "ffi allows the sync facade": (
            "crates/sync/src/poll.rs",
            'extern "C" {\n    fn poll(fds: *mut u8, n: u64, t: i32) -> i32;\n}\n',
            False,
        ),
        "ffi ignores extern crate, comments and strings": (
            "crates/spell/src/alloc_dep.rs",
            'extern crate alloc;\n// extern "C" is confined to crates/sync\n'
            'const DOC: &str = "extern { }";\n',
            False,
        ),
        "alloc fires inside an ingest-hot region": (
            "crates/spell/src/hot.rs",
            "// lint: ingest-hot(begin)\n"
            "fn f(s: &str) -> String { s.to_string() }\n"
            "// lint: ingest-hot(end)\n",
            True,
        ),
        "alloc fires on vec! inside a region": (
            "crates/spell/src/hot2.rs",
            "// lint: ingest-hot(begin)\n"
            "fn f() -> Vec<u32> { vec![1, 2] }\n"
            "// lint: ingest-hot(end)\n",
            True,
        ),
        "alloc ignores code outside regions": (
            "crates/spell/src/cold.rs",
            "fn f(s: &str) -> String { s.to_string() }\n",
            False,
        ),
        "alloc region ends at its end marker": (
            "crates/spell/src/bounded.rs",
            "// lint: ingest-hot(begin)\n"
            "fn hot(a: &[u32], out: &mut Vec<u32>) { out.extend(a); }\n"
            "// lint: ingest-hot(end)\n"
            "fn cold() -> Vec<u32> { Vec::new() }\n",
            False,
        ),
        "alloc honors allow marker": (
            "crates/spell/src/rare.rs",
            "// lint: ingest-hot(begin)\n"
            "// lint: allow(alloc) — new-key path, rare by construction\n"
            "fn f(s: &str) -> String { s.to_string() }\n"
            "// lint: ingest-hot(end)\n",
            False,
        ),
        "alloc fires in a region opened inside an impl block": (
            "crates/anomaly/src/hot.rs",
            "impl State {\n"
            "    // lint: ingest-hot(begin)\n"
            "    fn feed(&mut self, s: &str) { self.tokens.push(s.to_string()); }\n"
            "    // lint: ingest-hot(end)\n"
            "}\n",
            True,
        ),
        "alloc leaves the rare path after an in-impl region alone": (
            "crates/anomaly/src/rare_tail.rs",
            "impl State {\n"
            "    // lint: ingest-hot(begin)\n"
            "    fn feed(&mut self, s: &str) { self.log.push_line(s, &self.spans); }\n"
            "    // lint: ingest-hot(end)\n"
            "    fn unexpected(&mut self, s: &str) { self.seen.push(s.to_string()); }\n"
            "}\n",
            False,
        ),
        "alloc fires in the gateway's line loop (region inside a fn body)": (
            "crates/serve/src/gateway/hot_loop.rs",
            "fn process(&mut self, conn: &mut Conn) {\n"
            "    // lint: ingest-hot(begin)\n"
            "    while let Some((line, next)) = conn.next_line() {\n"
            "        let key = format!(\"{}\\x1f{}\", tenant.name, session);\n"
            "        self.route(&key, &line);\n"
            "    }\n"
            "    // lint: ingest-hot(end)\n"
            "}\n",
            True,
        ),
        "alloc spares the router's marked per-batch allocation": (
            "crates/serve/src/gateway/router.rs",
            "// lint: ingest-hot(begin)\n"
            "fn place(&mut self, key: &str, message: &str) {\n"
            "    let open = match &mut self.open {\n"
            "        Some(open) => open,\n"
            "        // lint: allow(alloc) — per batch, not per line\n"
            "        None => self.open.insert(String::with_capacity(self.hint)),\n"
            "    };\n"
            "    open.push_str(key);\n"
            "    open.push_str(message);\n"
            "}\n"
            "// lint: ingest-hot(end)\n",
            False,
        ),
        "alloc fires in the shard's per-record body, not in session open": (
            "crates/serve/src/record_body.rs",
            "// lint: ingest-hot(begin)\n"
            "fn feed_record(sessions: &mut Sessions, key: &str) {\n"
            "    let live = sessions.entry(key.to_string()).or_insert_with(open);\n"
            "}\n"
            "// lint: ingest-hot(end)\n"
            "fn open_session(sessions: &mut Sessions, key: &str) {\n"
            "    sessions.insert(key.to_string(), SessionState::new(key));\n"
            "}\n",
            True,
        ),
        "alloc leaves session open alone when the body borrows its key": (
            "crates/serve/src/record_body_ok.rs",
            "// lint: ingest-hot(begin)\n"
            "fn feed_record(sessions: &mut Sessions, key: &str) {\n"
            "    let live = match sessions.get_mut(key) {\n"
            "        Some(live) => live,\n"
            "        None => open_session(sessions, key),\n"
            "    };\n"
            "}\n"
            "// lint: ingest-hot(end)\n"
            "fn open_session(sessions: &mut Sessions, key: &str) {\n"
            "    sessions.insert(key.to_string(), SessionState::new(key));\n"
            "}\n",
            False,
        ),
        "exposition fires on Prometheus text outside obs": (
            "crates/serve/src/gateway/mod.rs",
            "fn render(out: &mut String, v: u64) {\n"
            '    let _ = writeln!(out, "# TYPE intellog_x counter\\nintellog_x {v}");\n'
            "}\n",
            True,
        ),
        "exposition allows the format's home crate": (
            "crates/obs/src/metrics.rs",
            "fn render(out: &mut String, family: &str) {\n"
            '    let _ = writeln!(out, "# TYPE {family} counter");\n'
            "}\n",
            False,
        ),
        "exposition spares tests that parse the format": (
            "crates/serve/tests/loopback.rs",
            'fn family(l: &str) -> Option<&str> { l.strip_prefix("# TYPE ") }\n',
            False,
        ),
        "exposition spares a #[cfg(test)] tail and a doc comment": (
            "crates/serve/src/gateway/metrics_doc.rs",
            "/// One `# TYPE ` line per family.\n"
            "fn f() {}\n"
            "#[cfg(test)]\n"
            'mod tests { fn g(t: &str) -> bool { t.contains("# TYPE ") } }\n',
            False,
        ),
        "alloc ignores patterns in comments and strings": (
            "crates/spell/src/docs.rs",
            "// lint: ingest-hot(begin)\n"
            "// callers must NOT use .to_string() here\n"
            'fn f() -> &\'static str { "Vec::new()" }\n'
            "// lint: ingest-hot(end)\n",
            False,
        ),
    }

    failures = 0
    for name, (relpath, content, should_fire) in cases.items():
        with tempfile.TemporaryDirectory() as td:
            root = Path(td)
            f = root / relpath
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_text(content, encoding="utf-8")
            fired = bool(lint_tree(root))
            if fired != should_fire:
                print(f"self-test FAIL: {name}: expected fired={should_fire}, "
                      f"got {fired}")
                failures += 1
    if failures:
        return 1
    print(f"self-test OK: {len(cases)} cases")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true",
                    help="verify the rules fire on synthetic violations")
    ap.add_argument("--root", type=Path, default=REPO,
                    help="tree to lint (default: the repo)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
