#!/usr/bin/env python3
"""Alternating A/B pairs of two built `benchmark/` binaries.

    ab.py BIN_A BIN_B --workload W [--seed S] [--pairs N] [--seconds T] [--json]
    ab.py --self-test

BIN_A is the parent's `benchmark/target/release/benchmark`, BIN_B the
change's; each runs from its own checkout root (the nearest directory above
the binary that holds `BENCHMARK.json`), `--trace 0`, one workload per run.
Pair i runs both binaries with seed S + i, in ABBA order: A first in even
pairs, B first in odd ones, so a drift of the host over the session falls on
both sides alike.  A run whose last stdout line says `correct` false or
`failed` > 0 stops the session.

What a run contributes per metric is the median over its reps, from the
stderr table; `peak_rss_mb` is one value per run.  Per metric the script
prints the medians of A's and of B's runs, A's interquartile range, the
median of the per-pair ratios B/A, a 95 % bootstrap interval of that median
(resampling the pairs), and the pairs B won, in the metric's `better`
direction as BENCHMARK.json declares it.  `--json` prints the same as one
JSON document, with every run's medians and also the value it reports (its
best rep).

`--self-test` runs the parsing and the statistics on synthetic run
documents and needs no binary.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BOOTSTRAP_RESAMPLES = 2000


def directions(contract_path=REPO / "BENCHMARK.json"):
    """metric name -> "lower" | "higher", from the contract's end-to-end rows."""
    contract = json.load(open(contract_path))
    return {m["name"]: m["better"] for m in contract["end_to_end"]}


def parse_run(stdout, stderr):
    """One run's readings per metric: `value` (what the run reports, its best
    rep) and `median` (over its reps, from the stderr table). Raises
    ValueError on a run that is not correct or failed operations, or whose
    documents do not parse."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no result line on stdout")
    doc = json.loads(lines[-1])
    if doc.get("correct") is not True or doc.get("failed", 1) != 0:
        raise ValueError(
            f"run not clean: correct={doc.get('correct')} failed={doc.get('failed')}"
        )
    values = {name: m["value"] for name, m in doc["metrics"].items()}
    medians = {}
    for row in stderr.splitlines():
        words = row.split()
        if len(words) >= 11 and words[0] in values and words[3] == "median":
            medians[words[0]] = float(words[4])
    missing = sorted(set(values) - set(medians))
    if missing:
        raise ValueError(f"no median row on stderr for {', '.join(missing)}")
    # One peak per process: its median is that value.
    medians["peak_rss_mb"] = values.get("peak_rss_mb", medians.get("peak_rss_mb"))
    return {"value": values, "median": medians}


def run_binary(binary, workload, seed, seconds):
    binary = Path(binary).resolve()
    root = next(
        (p for p in binary.parents if (p / "BENCHMARK.json").exists()), Path.cwd()
    )
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise ValueError(f"{binary} exited {done.returncode}: {done.stderr[-400:]}")
    return parse_run(done.stdout, done.stderr)


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], statistics.median(xs), q[2]


def summarise(pairs, better, rng_seed=0):
    """`pairs` is a list of (a_run, b_run) readings as `parse_run` returns
    them, summarised on each run's median reading. Per metric: medians, A's
    IQR, median pair ratio, its bootstrap interval and B's wins."""
    rng = random.Random(rng_seed)
    pairs = [(a["median"], b["median"]) for a, b in pairs]
    out = {}
    for name in sorted(pairs[0][0]):
        a = [p[0][name] for p in pairs]
        b = [p[1][name] for p in pairs]
        ratios = [y / x if x else float("inf") for x, y in zip(a, b)]
        boots = sorted(
            statistics.median(rng.choices(ratios, k=len(ratios)))
            for _ in range(BOOTSTRAP_RESAMPLES)
        )
        lo = boots[int(0.025 * (len(boots) - 1))]
        hi = boots[int(0.975 * (len(boots) - 1))]
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        a_q1, a_med, a_q3 = quartiles(a)
        out[name] = {
            "better": "lower" if lower else "higher",
            "a_median": a_med,
            "b_median": statistics.median(b),
            "a_iqr": a_q3 - a_q1,
            "ratio_median": statistics.median(ratios),
            "ratio_ci95": [lo, hi],
            "wins": wins,
            "pairs": len(pairs),
        }
    return out


def session(run, bin_a, bin_b, workload, seed, pairs, seconds, log):
    """Run the ABBA pairs through `run(binary, seed)`; returns the pairs."""
    got = []
    for i in range(pairs):
        s = seed + i
        order = [("A", bin_a), ("B", bin_b)]
        if i % 2:
            order.reverse()
        side = {}
        for label, binary in order:
            side[label] = run(binary, workload, s, seconds)
            log(f"pair {i + 1}/{pairs} seed {s} {label} done")
        got.append((side["A"], side["B"]))
    return got


def render(workload, summary):
    rows = [f"{workload}: B/A over {next(iter(summary.values()))['pairs']} pairs"]
    rows.append(f"  {'metric':<16} {'A median':>12} {'B median':>12} {'A IQR':>10} "
                f"{'ratio':>7} {'95% CI':>17} {'B wins':>7}")
    for name, m in summary.items():
        lo, hi = m["ratio_ci95"]
        rows.append(
            f"  {name:<16} {m['a_median']:>12.6g} {m['b_median']:>12.6g} "
            f"{m['a_iqr']:>10.4g} {m['ratio_median']:>7.3f} "
            f"{f'[{lo:.3f}, {hi:.3f}]':>17} {m['wins']:>3}/{m['pairs']:<3} ({m['better']})"
        )
    return "\n".join(rows)


def self_test():
    better = directions()
    bad, cases = [], []

    def expect(name, ok):
        cases.append(name)
        if not ok:
            bad.append(name)

    def run_doc(metrics, correct=True, failed=0):
        """A synthetic (stdout, stderr) pair as `benchmark --workload` writes."""
        doc = {"correct": correct, "attempted": 100, "failed": failed,
               "metrics": {k: {"value": v[0], "unit": "u"} for k, v in metrics.items()}}
        table = [f"w: correct={str(correct).lower()} attempted=100 failed={failed}"]
        for k, (value, median) in metrics.items():
            table.append(f"  {k:<32} {value:>12.4f} u  median {median:.4f} "
                         f"q1 {median:.4f} q3 {median:.4f} n 5")
        return "progress\n" + json.dumps(doc) + "\n", "\n".join(table) + "\n"

    base = {"lines_per_s": (1000.0, 900.0), "verdict_p50_ms": (0.030, 0.035),
            "peak_rss_mb": (50.0, 50.0), "setup_s": (0.1, 0.12),
            "cpu_s_per_mline": (1.5, 1.6)}
    out, err = run_doc(base)
    read = parse_run(out, err)
    expect("median read", read["median"]["verdict_p50_ms"] == 0.035)
    expect("value read", read["value"]["verdict_p50_ms"] == 0.030)
    expect("peak is one value", read["median"]["peak_rss_mb"] == 50.0)
    for name, doc in (("incorrect", run_doc(base, correct=False)),
                      ("failed ops", run_doc(base, failed=3)),
                      ("no median row", (out, err.replace("verdict_p50_ms", "x")))):
        try:
            parse_run(*doc)
            expect(f"{name} refused", False)
        except ValueError:
            pass

    def fake(effect, noise):
        """A runner: B's time metrics scaled by `effect`, rates by 1/effect,
        both sides jittered by `noise` from a seeded generator."""
        rng = random.Random(7)

        def run(binary, workload, seed, seconds):
            f = effect if binary == "B" else 1.0
            j = lambda: 1.0 + rng.uniform(-noise, noise)
            vals = {"lines_per_s": 1e6 / f * j(), "verdict_p50_ms": 0.03 * f * j(),
                    "peak_rss_mb": 50.0 * j(), "setup_s": 0.1 * j(),
                    "cpu_s_per_mline": 1.5 * f * j()}
            out, err = run_doc({k: (v, v) for k, v in vals.items()})
            return parse_run(out, err)
        return run

    quiet = lambda _: None
    order = []
    spy = lambda binary, w, s, t: order.append(binary) or fake(1.0, 0.0)(binary, w, s, t)
    session(spy, "A", "B", "w", 1, 4, 1, quiet)
    expect("ABBA order", order == ["A", "B", "B", "A", "A", "B", "B", "A"])

    faster = summarise(session(fake(0.8, 0.03), "A", "B", "w", 1, 10, 1, quiet), better)
    v = faster["verdict_p50_ms"]
    expect("gain: ratio", 0.75 < v["ratio_median"] < 0.85)
    expect("gain: interval below 1", v["ratio_ci95"][1] < 1.0)
    expect("gain: wins", v["wins"] == 10)
    expect("gain: rate wins higher", faster["lines_per_s"]["wins"] == 10)
    expect("gain: rate ratio", faster["lines_per_s"]["ratio_median"] > 1.15)

    same = summarise(session(fake(1.0, 0.05), "A", "B", "w", 1, 10, 1, quiet), better)
    s = same["verdict_p50_ms"]
    expect("A/A: interval covers 1", s["ratio_ci95"][0] <= 1.0 <= s["ratio_ci95"][1])
    expect("A/A: iqr positive", s["a_iqr"] > 0)
    expect("render", "verdict_p50_ms" in render("w", same))
    for name in bad:
        print(f"self-test FAIL: {name}")
    if bad:
        return 1
    print(f"self-test OK: {len(cases)} cases")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("bin_a")
    ap.add_argument("bin_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    log = lambda msg: print(msg, file=sys.stderr, flush=True)
    try:
        pairs = session(run_binary, args.bin_a, args.bin_b, args.workload, args.seed,
                        args.pairs, args.seconds, log)
    except ValueError as e:
        print(f"ab.py: {e}", file=sys.stderr)
        return 1
    summary = summarise(pairs, directions())
    if args.json:
        doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "metrics": summary,
               "runs": [{"a": a, "b": b} for a, b in pairs]}
        print(json.dumps(doc, indent=1))
    else:
        print(render(args.workload, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
