#!/usr/bin/env python3
"""CI benchmark gate over the documents `benchmark/` writes.

    check_scaling.py END_TO_END.json LAYERS.json PIPELINE.json
    check_scaling.py --self-test

Three fresh inputs, measured on the host that runs the gate:

  END_TO_END  `benchmark/ --seed 11 --seconds 3 --trace 0 --out ...`
  LAYERS      the same with `--trace 1`
  PIPELINE    `bench_pipeline --out ...` (automaton/linear ratio and the
              per-adapter ingest rows, which `benchmark/` does not have)

and the checked-in references beside `BENCHMARK.json`:
`BENCH_end_to_end.json` (the verbatim `--out` of
`cargo run --release --offline --manifest-path benchmark/Cargo.toml --
--seed 11` on the reference host) and `BENCH_pipeline.json`.  A perf PR
regenerates the references; nothing here holds a throughput number.

One rule for absolute numbers: a fresh value may not be worse than
TOLERANCE x its reference, in the metric's own `better` direction as
`BENCHMARK.json` declares it — every end-to-end metric but `setup_s`
(printed, not judged, as benchmark/check_spread.py does) on every
workload, and every adapter's msgs/s.

Self-relative invariants, from the fresh documents alone: every workload
verified its outputs with no failed operation; parallel detection beats
sequential by SPEEDUP_MIN where the measured host had >= 4 CPUs and holds
PARITY_MIN elsewhere, as parallel training does on every host (the Spell
stream and the HW-graph's ordered merge are sequential in both trainers;
the Intel Keys, session logs and Algorithm 2's per-session split run
through `sync::par_map`, so the ratio is above 1 on two cores but has no
floor of its own — it is printed with the verdict so the trajectory shows;
the traced ratio reads 0.95–1.00 on 2 vCPUs, yet untraced `train_batch`
loses 8–10 % of its lines/s when either per-session map runs sequentially,
so the end-to-end rate is what shows the maps pay); recording into `obs`
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
# An idle gateway's CPU, ms per second: 1.1-1.5 asleep in poll(2), 19-22 for
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
            ref = ref_end_to_end["workloads"][w]["metrics"][m["name"]]["value"]
            if m["name"] == "setup_s":
                gate(gid, None, f"{fresh['value']:.4g} (reference {ref:.4g})")
            else:
                against_reference(gid, fresh["value"], ref, m["better"])
    fresh_adapters = {a["name"]: a["adapted_msgs_per_s"] for a in pipeline["adapters"]}
    for ref in ref_pipeline["adapters"]:
        gid = f"adapter.{ref['name']}"
        if ref["name"] in fresh_adapters:
            rate = fresh_adapters[ref["name"]]
            against_reference(gid, rate, ref["adapted_msgs_per_s"], "higher")
        else:
            gate(gid, False, "adapter missing from the report")

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
    """From one passing set of documents, violate each rule in turn and
    require exactly that gate to fail."""
    contract = json.load(open(REPO / "BENCHMARK.json"))
    workloads = [w["name"] for w in contract["workloads"]]

    def run(metrics):
        return {
            "correct": True,
            "attempted": 100,
            "failed": 0,
            "metrics": {
                k: {"value": v, "median": v, "q1": v, "q3": v} for k, v in metrics.items()
            },
        }

    def doc(trace, metrics, cpus=2):
        return {
            "trace": trace,
            "smoke": False,
            "host_cpus": cpus,
            "workloads": {w: run(metrics) for w in workloads},
        }

    e2e = doc(False, {m["name"]: 10.0 for m in contract["end_to_end"]})
    layers = doc(
        True,
        {
            "anomaly.detect_sequential_s": 0.12,
            "anomaly.detect_s": 0.12,
            "anomaly.train_sequential_s": 0.15,
            "anomaly.train_s": 0.15,
            "obs.enabled_overhead_share": 0.01,
            "serve.dropped_lines": 0.0,
            "gateway.protocol_errors": 0.0,
            "gateway.achieved_share": 1.0,
            "gateway.idle_cpu_ms_per_s": 1.3,
            "gateway.verdict_p99_ms": 1.4,
            "gateway.ping_p50_ms": 0.26,
            "gateway.ping_p99_ms": 1.2,
        },
    )
    pipeline = {
        "spell": {"index_speedup": 100.0},
        "adapters": [{"name": n, "adapted_msgs_per_s": 7e5} for n in ("hadoop", "json")],
    }

    def value(d, w, name, v):
        d["workloads"][w]["metrics"][name]["value"] = v

    def speedup(d, ratio, cpus):
        d["host_cpus"] = cpus
        value(d, "detect_batch", "anomaly.detect_s", 0.12 / ratio)

    # name -> (how to change the fresh end-to-end, layers and pipeline
    # documents, the one gate that must then fail)
    cases = {
        "untouched set passes": (lambda e, l, p: None, None),
        "lines_per_s at 0.5x its reference": (
            lambda e, l, p: value(e, "detect_batch", "lines_per_s", 5.0),
            "end_to_end.detect_batch.lines_per_s",
        ),
        "lines_per_s at 0.7x passes": (
            lambda e, l, p: value(e, "detect_batch", "lines_per_s", 7.0),
            None,
        ),
        "cpu_s_per_mline at 2x": (
            lambda e, l, p: value(e, "serve_paced", "cpu_s_per_mline", 20.0),
            "end_to_end.serve_paced.cpu_s_per_mline",
        ),
        "setup_s at 10x is not judged": (
            lambda e, l, p: value(e, "train_batch", "setup_s", 100.0),
            None,
        ),
        "failed = 1": (
            lambda e, l, p: e["workloads"]["train_batch"].update(failed=1),
            "end_to_end.train_batch.verified",
        ),
        "correct = false": (
            lambda e, l, p: l["workloads"]["serve_saturate"].update(correct=False),
            "layers.serve_saturate.verified",
        ),
        "a missing workload": (
            lambda e, l, p: e["workloads"].pop("serve_saturate"),
            "end_to_end.serve_saturate.verified",
        ),
        "a missing metric": (
            lambda e, l, p: e["workloads"]["serve_paced"]["metrics"].pop("peak_rss_mb"),
            "end_to_end.serve_paced.peak_rss_mb",
        ),
        "a missing layer metric": (
            lambda e, l, p: l["workloads"]["train_batch"]["metrics"].pop("anomaly.train_s"),
            "layers.train_batch.anomaly.train_s",
        ),
        "--smoke documents": (lambda e, l, p: l.update(smoke=True), "full-size"),
        "detect ratio 0.6 on 2 CPUs": (lambda e, l, p: speedup(l, 0.6, 2), "detect_scaling"),
        "detect ratio 1.1 on 2 CPUs passes": (lambda e, l, p: speedup(l, 1.1, 2), None),
        "detect ratio 1.1 on 4 CPUs": (lambda e, l, p: speedup(l, 1.1, 4), "detect_scaling"),
        "train ratio 0.6": (
            lambda e, l, p: value(l, "train_batch", "anomaly.train_s", 0.25),
            "train_scaling",
        ),
        "overhead 0.06": (
            lambda e, l, p: value(l, "serve_saturate", "obs.enabled_overhead_share", 0.06),
            "overhead.serve_saturate",
        ),
        "overhead 0.06 among reps that spread 0.10 passes": (
            lambda e, l, p: (
                value(l, "serve_saturate", "obs.enabled_overhead_share", 0.06),
                e["workloads"]["serve_saturate"]["metrics"]["lines_per_s"].update(q3=11.0),
            ),
            None,
        ),
        "one dropped line": (
            lambda e, l, p: value(l, "serve_paced", "serve.dropped_lines", 1.0),
            "serve.dropped_lines.serve_paced",
        ),
        "one protocol error": (
            lambda e, l, p: value(l, "serve_saturate", "gateway.protocol_errors", 1.0),
            "gateway.protocol_errors.serve_saturate",
        ),
        "achieved share 0.94": (
            lambda e, l, p: value(l, "serve_paced", "gateway.achieved_share", 0.94),
            "achieved_share",
        ),
        "an idle gateway at 6 ms/s": (
            lambda e, l, p: value(l, "serve_paced", "gateway.idle_cpu_ms_per_s", 6.0),
            "idle_cpu",
        ),
        "an idle gateway at 4 ms/s passes": (
            lambda e, l, p: value(l, "serve_paced", "gateway.idle_cpu_ms_per_s", 4.0),
            None,
        ),
        "a ping p50 of 10 ms is printed, not gated": (
            lambda e, l, p: value(l, "serve_paced", "gateway.ping_p50_ms", 10.0),
            None,
        ),
        "a verdict p99 of 100 ms is printed, not gated": (
            lambda e, l, p: value(l, "serve_paced", "gateway.verdict_p99_ms", 100.0),
            None,
        ),
        "an adapter at half its reference": (
            lambda e, l, p: p["adapters"][1].update(adapted_msgs_per_s=3.5e5),
            "adapter.json",
        ),
        "a missing adapter": (lambda e, l, p: p["adapters"].pop(0), "adapter.hadoop"),
        "ratio 2.9": (lambda e, l, p: p["spell"].update(index_speedup=2.9), "ratio"),
    }
    bad = 0
    for name, (violate, expected) in cases.items():
        fresh = copy.deepcopy((e2e, layers, pipeline))
        violate(*fresh)
        got = failed(check(*fresh, e2e, pipeline, contract))
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
