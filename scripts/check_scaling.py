#!/usr/bin/env python3
"""CI benchmark gate over the documents `benchmark/` writes.

    check_scaling.py END_TO_END.json LAYERS.json PIPELINE.json
    check_scaling.py --self-test

Three fresh inputs, measured on the host that runs the gate:

  END_TO_END  `benchmark/ --seed 11 --seconds 3 --trace 0 --out ...`
  LAYERS      the same with `--trace 1`
  PIPELINE    `bench_pipeline --out ...` (automaton/linear ratio and the
              per-adapter ingest and header-parse rows, which `benchmark/`
              does not have)

and the checked-in references beside `BENCHMARK.json`:
`BENCH_end_to_end.json` (the verbatim `--out` of
`cargo run --release --offline --manifest-path benchmark/Cargo.toml --
--seed 11` on the reference host) and `BENCH_pipeline.json`.  A perf PR
regenerates the references; nothing here holds a throughput number.

One rule for absolute numbers: a fresh value may not be worse than
TOLERANCE x its reference, in the metric's own `better` direction as
`BENCHMARK.json` declares it — every end-to-end metric but `setup_s`
(printed, not judged, as benchmark/check_spread.py does) on every
workload, and every adapter's msgs/s, with Spell (`adapted_msgs_per_s`)
and without (`parse_msgs_per_s`).

Self-relative invariants, from the fresh documents alone: every workload
verified its outputs with no failed operation; parallel detection beats
sequential by SPEEDUP_MIN where the measured host had >= 4 CPUs and holds
PARITY_MIN elsewhere, as parallel training does on every host (its two
ordered stages — the Spell stream and the HW-graph's merge — run their
state-free halves, tokenising and each session's log and Algorithm 2
split, ahead on `sync::par_map_ordered` while the calling thread consumes
in order;
the ratio has no floor of its own — it is printed with the verdict so the
trajectory shows, and the end-to-end `train_batch` rate is what shows the
maps pay); recording into `obs`
costs at most OVERHEAD_MAX of a rep on every workload, judged no more
sharply than the spread of that workload's own reps; the gateway drops
no line and sees no protocol error, at the paced rate achieves
ACHIEVED_MIN of what was offered, and with one connection open and nothing
to do burns at most IDLE_CPU_MAX ms of CPU per second (it sleeps in
poll(2); doing nothing costs the same on every host); the automaton beats
the linear scan by RATIO_FLOOR.  Latencies of the paced probe are printed,
not gated: one host stall inside a 3 s window moves a p99 tenfold.

Exit code 0 = all gates pass.  Any failure prints every violated gate
and exits 1.
"""

import copy
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# The loosest one-digit share that still fails a return to the parent of each
# of the last three perf PRs, on the metric it claimed and as a share of the
# value measured since: 0.22 (PR 14, detect_batch), 0.56 (PR 16, the same)
# and 0.35 (PR 17, serve_saturate) — EXPERIMENTS.md "Measurement" has the
# numbers.  The benchmark's own same-host bound is 0.25; a CI runner is
# another host, so the gate is looser than the driver, not tighter.
TOLERANCE = 0.6
SPEEDUP_MIN = 1.2  # parallel vs sequential detection, hosts with >= 4 CPUs
PARITY_MIN = 0.70  # the same ratio on smaller hosts, and training everywhere
OVERHEAD_MAX = 0.05  # obs enabled vs disabled, share of a rep (DESIGN §9)
ACHIEVED_MIN = 0.95  # serve_paced: achieved / offered rate
# An idle gateway's CPU, ms per second: 0.7-0.8 asleep in poll(2), 19-23 for
# the timed back-off it replaced (EXPERIMENTS.md "The loop sleeps in poll(2)")
IDLE_CPU_MAX = 5.0
RATIO_FLOOR = 3.0  # automaton vs linear matcher, per message

SERVE = ("serve_saturate", "serve_paced")
PRINTED = ("gateway.verdict_p99_ms", "gateway.ping_p50_ms", "gateway.ping_p99_ms")
STATUS = {True: "PASS", False: "FAIL", None: "note"}


def check(end_to_end, layers, pipeline, ref_end_to_end, ref_pipeline, contract):
    """Every gate as `(id, ok, message)`; ids are what --self-test names,
    and `ok` is None for a value that is printed but not judged."""
    gates = []
    docs = {"end_to_end": end_to_end, "layers": layers}
    workloads = [w["name"] for w in contract["workloads"]]

    def gate(gid, ok, msg):
        gates.append((gid, ok, msg))

    def metric(doc, workload, name):
        """One metric of a fresh document; None if its workload is missing
        (the workload's `verified` gate says so) or the metric is, which
        fails the gate `doc.workload.name`."""
        run = docs[doc]["workloads"].get(workload)
        m = None if run is None else run["metrics"].get(name)
        if run is not None and m is None:
            gate(f"{doc}.{workload}.{name}", False, "metric missing")
        return m

    def against_reference(gid, fresh, ref, better):
        """A reference without the row fails the gate: it judges nothing."""
        if ref is None:
            gate(gid, False, f"{fresh:.4g}, no reference")
            return
        if min(fresh, ref) <= 0:
            goodness = 0.0  # a rate or a cost of zero is a broken measurement
        else:
            goodness = fresh / ref if better == "higher" else ref / fresh
        gate(
            gid,
            goodness >= TOLERANCE,
            f"{fresh:.4g} against reference {ref:.4g} ({better} is better): "
            f"{goodness:.2f} >= {TOLERANCE}",
        )

    gate(
        "full-size",
        not (end_to_end.get("smoke") or layers.get("smoke")),
        "the fresh documents are full-size runs, not --smoke",
    )
    for doc in docs:
        for w in workloads:
            run = docs[doc]["workloads"].get(w)
            gate(
                f"{doc}.{w}.verified",
                run is not None and run["correct"] is True and run["failed"] == 0,
                "missing from the document"
                if run is None
                else f"correct={run['correct']} failed={run['failed']}",
            )

    # --- one rule for absolute numbers ------------------------------------
    for w in workloads:
        for m in contract["end_to_end"]:
            gid = f"end_to_end.{w}.{m['name']}"
            fresh = metric("end_to_end", w, m["name"])
            if fresh is None:
                continue
            ref = ref_end_to_end["workloads"].get(w, {}).get("metrics", {}).get(m["name"], {})
            ref = ref.get("value")
            if m["name"] == "setup_s" and ref is not None:
                gate(gid, None, f"{fresh['value']:.4g} (reference {ref:.4g})")
            else:
                against_reference(gid, fresh["value"], ref, m["better"])
    fresh_adapters = {a["name"]: a for a in pipeline["adapters"]}
    for ref in ref_pipeline["adapters"]:
        fresh = fresh_adapters.get(ref["name"])
        if fresh is None:
            gate(f"adapter.{ref['name']}", False, "adapter missing from the report")
            continue
        for gid, rate in (("adapter", "adapted_msgs_per_s"), ("parse", "parse_msgs_per_s")):
            gid = f"{gid}.{ref['name']}"
            against_reference(gid, fresh.get(rate, 0.0), ref.get(rate), "higher")

    # --- self-relative invariants -----------------------------------------
    ratio = pipeline["spell"]["index_speedup"]
    gate("ratio", ratio >= RATIO_FLOOR, f"automaton/linear = {ratio:.1f}x >= {RATIO_FLOOR}x")

    cpus = layers["host_cpus"]
    for stage, w in (("detect", "detect_batch"), ("train", "train_batch")):
        seq = metric("layers", w, f"anomaly.{stage}_sequential_s")
        par = metric("layers", w, f"anomaly.{stage}_s")
        if seq is None or par is None:
            continue
        floor = SPEEDUP_MIN if stage == "detect" and cpus >= 4 else PARITY_MIN
        ratio = seq["value"] / par["value"] if par["value"] > 0 else 0.0
        gate(
            f"{stage}_scaling",
            ratio >= floor,
            f"anomaly.{stage}_sequential_s / anomaly.{stage}_s = {ratio:.2f} "
            f">= {floor} (measured on {cpus} CPU(s))",
        )
    for w in workloads:
        share = metric("layers", w, "obs.enabled_overhead_share")
        rate = metric("end_to_end", w, "lines_per_s")
        if share is None or rate is None:
            continue
        # The share compares the best of a few reps with recording on to the
        # best of a few with it off, so it is only as sharp as the host's
        # reps are alike: a reading counts as over the bar when it exceeds
        # it by more than the interquartile spread of the same workload's
        # reps in the untraced document.
        spread = (rate["q3"] - rate["q1"]) / rate["median"]
        gate(
            f"overhead.{w}",
            share["value"] <= OVERHEAD_MAX + spread,
            f"obs.enabled_overhead_share {share['value']:+.3f} <= {OVERHEAD_MAX} "
            f"+ {spread:.3f} (spread of the reps)",
        )
    for w in SERVE:
        for name in ("serve.dropped_lines", "gateway.protocol_errors"):
            count = metric("layers", w, name)
            if count is not None:
                gate(f"{name}.{w}", count["value"] == 0, f"{count['value']:.0f} == 0")
    share = metric("layers", "serve_paced", "gateway.achieved_share")
    if share is not None:
        gate(
            "achieved_share",
            share["value"] >= ACHIEVED_MIN,
            f"serve_paced achieved {share['value']:.3f} of the offered rate >= {ACHIEVED_MIN}",
        )
    idle = metric("layers", "serve_paced", "gateway.idle_cpu_ms_per_s")
    if idle is not None:
        gate(
            "idle_cpu",
            idle["value"] <= IDLE_CPU_MAX,
            f"an idle gateway burns {idle['value']:.1f} ms of CPU per second <= {IDLE_CPU_MAX}",
        )
    for name in PRINTED:
        latency = metric("layers", "serve_paced", name)
        if latency is not None:
            gate(f"{name}.serve_paced", None, f"{latency['value']:.2f}")
    return gates


def failed(gates):
    return sorted({gid for gid, ok, _ in gates if ok is False})


def self_test() -> int:
    """From one passing set of documents — the checked-in references, each
    as its own fresh report, and a synthetic layers document — violate each
    rule in turn and require exactly that gate to fail.  A reference that
    lacks a row the gate reads fails the untouched set."""
    contract = json.load(open(REPO / "BENCHMARK.json"))
    workloads = [w["name"] for w in contract["workloads"]]
    e2e = json.load(open(REPO / "BENCH_end_to_end.json"))
    pipeline = json.load(open(REPO / "BENCH_pipeline.json"))
    # The layers document has no reference: one synthetic run per workload.
    run = {"correct": True, "failed": 0, "metrics": {}}
    for name, v in (
        ("anomaly.detect_sequential_s", 0.12), ("anomaly.detect_s", 0.12),
        ("anomaly.train_sequential_s", 0.15), ("anomaly.train_s", 0.15),
        ("obs.enabled_overhead_share", 0.01), ("serve.dropped_lines", 0.0),
        ("gateway.protocol_errors", 0.0), ("gateway.achieved_share", 1.0),
        ("gateway.idle_cpu_ms_per_s", 1.3), ("gateway.verdict_p99_ms", 1.4),
        ("gateway.ping_p50_ms", 0.26), ("gateway.ping_p99_ms", 1.2),
    ):
        run["metrics"][name] = {"value": v}
    layers = {"trace": True, "smoke": False, "host_cpus": 2}
    layers["workloads"] = {w: copy.deepcopy(run) for w in workloads}

    def value(d, w, name, v):
        d["workloads"][w]["metrics"][name]["value"] = v

    def scale(d, w, name, factor):
        d["workloads"][w]["metrics"][name]["value"] *= factor

    def spread(e, w, share):
        rate = e["workloads"][w]["metrics"]["lines_per_s"]
        rate.update(q1=rate["median"], q3=rate["median"] * (1 + share))

    def adapter(p, name, rate, factor):
        a = next(a for a in p["adapters"] if a["name"] == name)
        a[rate] *= factor

    def speedup(d, ratio, cpus):
        d["host_cpus"] = cpus
        value(d, "detect_batch", "anomaly.detect_s", 0.12 / ratio)

    # name -> (how to change the fresh end-to-end, layers and pipeline
    # documents and, after them, the two references; the one gate that
    # must then fail)
    cases = {
        "untouched set passes": (lambda e, l, p, *r: None, None),
        "lines_per_s at 0.5x its reference": (
            lambda e, l, p, *r: scale(e, "detect_batch", "lines_per_s", 0.5),
            "end_to_end.detect_batch.lines_per_s",
        ),
        "lines_per_s at 0.7x passes": (
            lambda e, l, p, *r: scale(e, "detect_batch", "lines_per_s", 0.7),
            None,
        ),
        "cpu_s_per_mline at 2x": (
            lambda e, l, p, *r: scale(e, "serve_paced", "cpu_s_per_mline", 2.0),
            "end_to_end.serve_paced.cpu_s_per_mline",
        ),
        "setup_s at 10x is not judged": (
            lambda e, l, p, *r: scale(e, "train_batch", "setup_s", 10.0),
            None,
        ),
        "failed = 1": (
            lambda e, l, p, *r: e["workloads"]["train_batch"].update(failed=1),
            "end_to_end.train_batch.verified",
        ),
        "correct = false": (
            lambda e, l, p, *r: l["workloads"]["serve_saturate"].update(correct=False),
            "layers.serve_saturate.verified",
        ),
        "a missing workload": (
            lambda e, l, p, *r: e["workloads"].pop("serve_saturate"),
            "end_to_end.serve_saturate.verified",
        ),
        "a missing metric": (
            lambda e, l, p, *r: e["workloads"]["serve_paced"]["metrics"].pop("peak_rss_mb"),
            "end_to_end.serve_paced.peak_rss_mb",
        ),
        "a missing layer metric": (
            lambda e, l, p, *r: l["workloads"]["train_batch"]["metrics"].pop("anomaly.train_s"),
            "layers.train_batch.anomaly.train_s",
        ),
        "a reference without a metric": (
            lambda e, l, p, re, rp: re["workloads"]["detect_batch"]["metrics"].pop("peak_rss_mb"),
            "end_to_end.detect_batch.peak_rss_mb",
        ),
        "--smoke documents": (lambda e, l, p, *r: l.update(smoke=True), "full-size"),
        "detect ratio 0.6 on 2 CPUs": (lambda e, l, p, *r: speedup(l, 0.6, 2), "detect_scaling"),
        "detect ratio 1.1 on 2 CPUs passes": (lambda e, l, p, *r: speedup(l, 1.1, 2), None),
        "detect ratio 1.1 on 4 CPUs": (lambda e, l, p, *r: speedup(l, 1.1, 4), "detect_scaling"),
        "train ratio 0.6": (
            lambda e, l, p, *r: value(l, "train_batch", "anomaly.train_s", 0.25),
            "train_scaling",
        ),
        "overhead 0.06 among reps that are alike": (
            lambda e, l, p, *r: (
                value(l, "serve_saturate", "obs.enabled_overhead_share", 0.06),
                spread(e, "serve_saturate", 0.0),
            ),
            "overhead.serve_saturate",
        ),
        "overhead 0.06 among reps that spread 0.10 passes": (
            lambda e, l, p, *r: (
                value(l, "serve_saturate", "obs.enabled_overhead_share", 0.06),
                spread(e, "serve_saturate", 0.10),
            ),
            None,
        ),
        "one dropped line": (
            lambda e, l, p, *r: value(l, "serve_paced", "serve.dropped_lines", 1.0),
            "serve.dropped_lines.serve_paced",
        ),
        "one protocol error": (
            lambda e, l, p, *r: value(l, "serve_saturate", "gateway.protocol_errors", 1.0),
            "gateway.protocol_errors.serve_saturate",
        ),
        "achieved share 0.94": (
            lambda e, l, p, *r: value(l, "serve_paced", "gateway.achieved_share", 0.94),
            "achieved_share",
        ),
        "an idle gateway at 6 ms/s": (
            lambda e, l, p, *r: value(l, "serve_paced", "gateway.idle_cpu_ms_per_s", 6.0),
            "idle_cpu",
        ),
        "an idle gateway at 4 ms/s passes": (
            lambda e, l, p, *r: value(l, "serve_paced", "gateway.idle_cpu_ms_per_s", 4.0),
            None,
        ),
        "a ping p50 of 10 ms is printed, not gated": (
            lambda e, l, p, *r: value(l, "serve_paced", "gateway.ping_p50_ms", 10.0),
            None,
        ),
        "a verdict p99 of 100 ms is printed, not gated": (
            lambda e, l, p, *r: value(l, "serve_paced", "gateway.verdict_p99_ms", 100.0),
            None,
        ),
        "an adapter at half its reference": (
            lambda e, l, p, *r: adapter(p, "json", "adapted_msgs_per_s", 0.5),
            "adapter.json",
        ),
        "a header parse at half its reference": (
            lambda e, l, p, *r: adapter(p, "hadoop", "parse_msgs_per_s", 0.5),
            "parse.hadoop",
        ),
        "a header parse at 0.7x passes": (
            lambda e, l, p, *r: adapter(p, "json", "parse_msgs_per_s", 0.7),
            None,
        ),
        "a reference without parse_msgs_per_s": (
            lambda e, l, p, re, rp: rp["adapters"][1].pop("parse_msgs_per_s"),
            f"parse.{pipeline['adapters'][1]['name']}",
        ),
        "a missing adapter": (
            lambda e, l, p, *r: p["adapters"].pop(0),
            f"adapter.{pipeline['adapters'][0]['name']}",
        ),
        "ratio 2.9": (lambda e, l, p, *r: p["spell"].update(index_speedup=2.9), "ratio"),
    }
    bad = 0
    for name, (violate, expected) in cases.items():
        fresh = copy.deepcopy((e2e, layers, pipeline))
        refs = copy.deepcopy((e2e, pipeline))
        violate(*fresh, *refs)
        got = failed(check(*fresh, *refs, contract))
        want = [] if expected is None else [expected]
        if got != want:
            print(f"self-test FAIL: {name}: expected {want}, got {got}")
            bad += 1
    if bad:
        return 1
    print(f"self-test OK: {len(cases)} cases")
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if len(args) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    fresh = [json.load(open(p)) for p in args]
    refs = [
        json.load(open(REPO / name))
        for name in ("BENCH_end_to_end.json", "BENCH_pipeline.json", "BENCHMARK.json")
    ]
    gates = check(*fresh, *refs)
    for gid, ok, msg in gates:
        print(f"{STATUS[ok]}  {gid}: {msg}")
    bad = failed(gates)
    if bad:
        print(f"\n{len(bad)} benchmark gate(s) failed: {', '.join(bad)}")
        return 1
    scaling = "; ".join(
        msg.split(" >= ")[0] for gid, _, msg in gates if gid.endswith("_scaling")
    )
    print(f"\nall benchmark gates passed ({scaling})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
