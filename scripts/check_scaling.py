#!/usr/bin/env python3
"""CI scaling gate over the bench harness JSON reports.

Reads BENCH_pipeline.json and BENCH_serve.json (full-size runs, not
--smoke: the smoke corpora are deliberately tiny and their scaling
numbers are noise) and enforces:

  * pipeline: threads4 parallel detection beats sequential by
    >= SPEEDUP_MIN when the host has >= 4 CPUs.  On smaller hosts a real
    speedup is physically impossible (the threadsN series just
    time-slices one core), so the gate degrades to a non-regression
    bound: threads4 >= PARITY_MIN * sequential, i.e. the executor's
    scheduling overhead stays bounded.
  * pipeline: threads4 training holds PARITY_MIN * sequential on every
    host.  Spell (an order-dependent stream) and the HW-graph merge are
    sequential in both trainers, so training makes no speedup claim; the
    gate bounds what the parallel per-key/per-session stages cost.
  * pipeline: absolute per-stage throughput floors — Spell streaming
    parse (`parse_message`, the trainer's call), frozen-automaton
    `match_ids`, and Intel-Key extraction — set far below any observed
    run (see BENCH_pipeline.json; GitHub runners are slower but not 10x
    slower) so only a genuine hot-path regression trips them, plus the
    automaton-vs-linear ratio floor which is load-independent because
    both sides run back-to-back on identical pre-interned probes.
  * pipeline: the two session-rate stages Algorithm 2 sits in — HW-graph
    training (`hwgraph.sessions_per_s`) and sequential detection
    (`detection.sequential_sessions_per_s`) — clear floors at about half
    the checked-in measurement (15.9k and 39.8k sessions/s after ISSUE 16's
    per-line record; 11.1k and 17.4k with an owned Intel Message per line
    after ISSUE 14's indexed kernel).  The bench corpus is short MapReduce
    sessions, where the old scan over open instances still managed 6.0k
    and 11.2k on the same host, so these floors catch a return to per-line
    strings or a collapse of either stage rather than every return towards
    the scan; that is held by the kernel's own bounded-time regression
    tests (`long_session_*` in crates/hwgraph and crates/anomaly).
  * pipeline: every lognlp::format adapter (hadoop, spark, hdfs, syslog,
    json) clears an absolute raw-line ingest floor — header parse ahead
    of the same streaming Spell parse — so no `--format` can silently
    decay into a slow path.
  * serve: lines/s is monotone non-decreasing from 1 -> 2 -> 4 shards,
    with multiplicative noise slack per step (on a single-CPU host the
    series is flat; more shards must never make it *worse* than slack).
    The scaling series is measured over 4 concurrent connections, so it
    also covers the gateway's readiness sweep, not just the shards.
  * gateway connections: every point of the 1 -> 8 connection series
    clears an absolute throughput floor (local single-CPU measurements
    sit at 56-66k lines/s; the floor is ~10x below that so only a real
    event-loop regression trips it), and 8 connections must not fall
    below CONN_PARITY x the single-connection rate — fanning the same
    load over more sockets exercises the sweep but must not collapse it.

Exit code 0 = all gates pass.  Any failure prints every violated gate
and exits 1.
"""

import json
import os
import sys

SPEEDUP_MIN = 1.2  # detection threads4 vs sequential, hosts with >= 4 CPUs
PARITY_MIN = 0.70  # threads4 vs sequential: training always, detection < 4 CPUs
SERVE_STEP_SLACK = 0.85  # per-step noise slack on the shard series
CONN_FLOOR = 5_000  # gateway lines/s at any connection count
CONN_PARITY = 0.60  # 8 connections vs 1 (sweep overhead bound)
PARSE_FLOOR = 150_000  # Spell streaming parse (parse_message), msgs/s
MATCH_FLOOR = 100_000  # Spell frozen-automaton match, msgs/s
EXTRACT_FLOOR = 20_000  # Intel-Key extraction, keys/s
RATIO_FLOOR = 3.0  # indexed vs linear matcher, same probes
ADAPTER_FLOOR = 100_000  # raw-line (header + parse) ingest per adapter, msgs/s
HWGRAPH_FLOOR = 8_000  # full training incl. HwGraph::build, sessions/s
DETECT_FLOOR = 20_000  # sequential detection, sessions/s


def main() -> int:
    pipeline_path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_pipeline.json"
    serve_path = sys.argv[2] if len(sys.argv) > 2 else "BENCH_serve.json"
    pipeline = json.load(open(pipeline_path))
    serve = json.load(open(serve_path))

    cpus = os.cpu_count() or 1
    failures = []

    def gate(ok, msg):
        print(("PASS  " if ok else "FAIL  ") + msg)
        if not ok:
            failures.append(msg)

    if pipeline.get("smoke") or serve.get("smoke"):
        print("error: gate needs full-size bench reports, got --smoke output")
        return 1

    # --- pipeline: thread scaling ---------------------------------------
    for section in ("training", "detection"):
        seq = pipeline[section]["sequential_sessions_per_s"]
        t4 = pipeline[section]["threads4_sessions_per_s"]
        ratio = t4 / seq
        if section == "detection" and cpus >= 4:
            gate(
                ratio >= SPEEDUP_MIN,
                f"{section}: threads4/seq = {ratio:.2f} >= {SPEEDUP_MIN} "
                f"(host has {cpus} CPUs)",
            )
        else:
            gate(
                ratio >= PARITY_MIN,
                f"{section}: threads4/seq = {ratio:.2f} >= {PARITY_MIN} "
                f"(overhead bound; host has {cpus} CPU(s))",
            )

    # --- pipeline: per-stage Spell floors --------------------------------
    spell = pipeline["spell"]
    gate(
        spell["parse_msgs_per_s"] >= PARSE_FLOOR,
        f"spell parse: {spell['parse_msgs_per_s']:.0f} msgs/s >= {PARSE_FLOOR}",
    )
    gate(
        spell["match_indexed_msgs_per_s"] >= MATCH_FLOOR,
        f"spell indexed match: {spell['match_indexed_msgs_per_s']:.0f} "
        f"msgs/s >= {MATCH_FLOOR}",
    )
    gate(
        spell["index_speedup"] >= RATIO_FLOOR,
        f"spell indexed/linear ratio: {spell['index_speedup']:.1f}x >= "
        f"{RATIO_FLOOR}x",
    )
    extraction = pipeline["extraction"]
    gate(
        extraction["keys_per_s"] >= EXTRACT_FLOOR,
        f"extraction: {extraction['keys_per_s']:.0f} keys/s >= {EXTRACT_FLOOR}",
    )

    # --- pipeline: session-rate floors (Algorithm 2's two callers) --------
    hw = pipeline["hwgraph"]["sessions_per_s"]
    gate(hw >= HWGRAPH_FLOOR, f"hwgraph: {hw:.0f} sessions/s >= {HWGRAPH_FLOOR}")
    det = pipeline["detection"]["sequential_sessions_per_s"]
    gate(
        det >= DETECT_FLOOR,
        f"detection sequential: {det:.0f} sessions/s >= {DETECT_FLOOR}",
    )

    # --- pipeline: format-adapter raw-line ingest floor -------------------
    adapters = {a["name"]: a for a in pipeline["adapters"]}
    for name in ("hadoop", "spark", "hdfs", "syslog", "json"):
        a = adapters[name]
        gate(
            a["adapted_msgs_per_s"] >= ADAPTER_FLOOR,
            f"adapter {name}: {a['adapted_msgs_per_s']:.0f} msgs/s >= "
            f"{ADAPTER_FLOOR}",
        )

    # --- serve: shard scaling monotone within slack ----------------------
    by_shards = {s["shards"]: s["lines_per_s"] for s in serve["scaling"]}
    for lo, hi in ((1, 2), (2, 4)):
        ratio = by_shards[hi] / by_shards[lo]
        gate(
            ratio >= SERVE_STEP_SLACK,
            f"serve: {hi} shards / {lo} shards = {ratio:.2f} >= "
            f"{SERVE_STEP_SLACK} (monotone non-decreasing within slack)",
        )
    gate(
        serve["correctness_verified"] is True,
        "serve: online verdicts verified against offline detection",
    )

    # --- gateway: connection series floor + sweep-overhead bound ---------
    by_conns = {c["connections"]: c["lines_per_s"] for c in serve["connections"]}
    for conns in sorted(by_conns):
        gate(
            by_conns[conns] >= CONN_FLOOR,
            f"gateway: {by_conns[conns]:.0f} lines/s at {conns} "
            f"connection(s) >= {CONN_FLOOR}",
        )
    most = max(by_conns)
    ratio = by_conns[most] / by_conns[1]
    gate(
        ratio >= CONN_PARITY,
        f"gateway: {most} conns / 1 conn = {ratio:.2f} >= {CONN_PARITY} "
        f"(readiness sweep must not collapse under fan-in)",
    )
    dropped = [s for s in serve["scaling"] + serve["connections"] if s["dropped"]]
    gate(
        not dropped,
        "gateway: block backpressure dropped nothing in any timing run",
    )

    if failures:
        print(f"\n{len(failures)} scaling gate(s) failed")
        return 1
    print("\nall scaling gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
