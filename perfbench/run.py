"""Benchmark of the two user-facing commands, `arboreal certify` and
`arboreal verify`.

    python3 perfbench/run.py --workload orbit-deep --seed 1 --seconds 45 --trace 0

Every operation runs in a fresh interpreter (perfbench/child.py), one child at
a time, because a CLI user pays for one process per certificate and memo
caches must not warm across repetitions.  A pass certifies each config of the
workload and then verifies each certificate just written; the seed only sets
the order of operations within a pass.  Each operation is checked: exit
status 0, status VALID, `verify` accepting, and the certificate's semantic
digest equal to the golden one in perfbench/golden.json.

--trace 0 repeats passes until --seconds have elapsed, and at least twice,
and reports the end-to-end metrics.  --trace 1 makes a fixed set of passes
instead (one untraced certify pass, a traced certify and verify pass, and a
second traced certify pass whose counts must repeat the first's exactly) and
reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.

Output: a host record and one line per metric, then as the last line a JSON
object with the keys correct, attempted, failed and metrics.  The full
record, with every sample, goes to .bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# BENCHMARK.json names orbit-deep and search-wide.  integer-colors is run by
# hand: three workloads do not fit an hour of benchmarking at a run length
# that keeps their spread within the bounds (see README.md).
WORKLOADS = {
    "orbit-deep": [("g-alt3-sym3", 4), ("wreath-z2-z2", 4)],
    "search-wide": [("wreath-z3-z2", 2), ("wreath-z2-z3", 2)],
    "integer-colors": [("z-translations", 3), ("z-translations", 4)],
}
MODULES = ["tree_core", "perm_groups", "portraits", "dynamics", "piecewise",
           "cstar_obstruction", "cli"]
DIGEST_KEYS = ("group", "edge", "witness_a", "witness_b", "orbit", "checks", "caveats", "status")
SETUP_SAMPLES = 3  # interpreter starts timed at the start and the end of a run
MIN_PASSES = 2  # so that every config has a median of at least two samples
OP_TIMEOUT = 150.0
RUN_BUDGET = 150.0  # no pass starts that would likely end past this many seconds


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def config_name(preset: str, wl: int) -> str:
    return f"{preset}-wl{wl}"


def semantic_digest(text: str) -> str:
    """sha256 of the canonical JSON of the certificate's semantic fields.

    The version line and `config` (which holds the seed) are left out, so a
    new certificate format still compares while any change to a witness or a
    count does not."""
    _, _, body = text.partition("\n")
    data = json.loads(body)
    sub = {k: data[k] for k in DIGEST_KEYS}
    return hashlib.sha256(json.dumps(sub, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# -- one operation ---------------------------------------------------------------


def child_env(hash_seed: int = 0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_op(kind: str, config: tuple[str, int], cert: Path, trace: int, golden: dict,
           hash_seed: int = 0) -> dict:
    """Run one certify or verify in a child process and check its output."""
    preset, wl = config
    name = config_name(preset, wl)
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--trace", str(trace), "--"]
    if kind == "certify":
        cert.unlink(missing_ok=True)  # so a failed certify cannot leave an older one behind
        cmd += ["certify", "--preset", preset, "--word-length", str(wl), "--out", str(cert)]
    else:
        cmd += ["verify", str(cert)]
    rec = {"op": kind, "config": name, "trace": trace, "ok": False}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT,
                              env=child_env(hash_seed), cwd=cert.parent)
    except subprocess.TimeoutExpired:
        rec["reason"] = f"timed out after {OP_TIMEOUT} s"
        rec["timeout"] = True
        return rec
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        rec["reason"] = f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return rec
    rec.update(seconds=report["seconds"], maxrss_mb=report["maxrss_kb"] / 1024.0,
               wrappers=report["wrappers"])
    if "trace" in report:
        rec["trace"] = report["trace"]
    if report["exit"] != 0:
        rec["reason"] = f"{kind} exited {report['exit']}: {report['stdout'].strip()[-300:]}"
        return rec
    try:
        text = cert.read_text()
        digest = semantic_digest(text)
        body = json.loads(text.partition("\n")[2])
        status = body["status"]
        rec["orbit_points"] = body["orbit"]["points"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rec["reason"] = f"unreadable certificate: {exc!r}"
        return rec
    if status != "VALID":
        rec["reason"] = f"status {status}"
    elif digest != golden.get(name):
        rec["reason"] = f"golden mismatch: {digest}"
    else:
        rec["ok"] = True
    return rec


def run_pass(configs, rng: random.Random, workdir: Path, trace: int, golden: dict,
             verify: bool = True, hash_seed: int = 0, setup: list | None = None) -> list[dict]:
    """Certify every config, then verify every certificate, each in an order
    drawn from rng.  With `setup`, one interpreter start is timed into it
    before each operation, so set-up samples spread over the whole run."""
    certs = {c: workdir / f"{config_name(*c)}.cert" for c in configs}
    ops = [("certify", c) for c in rng.sample(configs, len(configs))]
    if verify:
        ops += [("verify", c) for c in rng.sample(configs, len(configs))]
    records = []
    for kind, c in ops:
        if setup is not None:
            setup.append(time_setup())
        records.append(run_op(kind, c, certs[c], trace, golden, hash_seed))
    return records


def time_setup() -> float:
    """Wall seconds to start a fresh interpreter and import arboreal.cli.

    No timeout: with one, `subprocess` polls for the exit in steps of up to
    50 ms, which would quantize the samples."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import arboreal.cli"], env=child_env(), check=True)
    return time.perf_counter() - t0


# -- metrics -------------------------------------------------------------------------


def summed_median(records: list[dict], kind: str) -> float:
    """Sum over configs of the median seconds of that config's operations."""
    by_config: dict[str, list[float]] = {}
    for r in records:
        if r["op"] == kind and "seconds" in r:
            by_config.setdefault(r["config"], []).append(r["seconds"])
    return sum(statistics.median(v) for v in by_config.values())


def end_to_end(records: list[dict], setup: list[float]) -> dict:
    failed = sum(not r["ok"] for r in records)
    return {
        "setup_s": statistics.median(setup),
        "certify_s": summed_median(records, "certify"),
        "verify_s": summed_median(records, "verify"),
        "peak_rss_mb": max((r["maxrss_mb"] for r in records if "maxrss_mb" in r), default=0.0),
        "success_rate": 1.0 - failed / len(records),
    }


def src_lines() -> dict:
    """Non-blank, non-comment lines of each module under src/arboreal."""
    out = {}
    total = 0
    for path in sorted((SRC / "arboreal").glob("*.py")):
        n = sum(1 for line in path.read_text().splitlines()
                if line.strip() and not line.strip().startswith("#"))
        total += n
        if path.stem in MODULES:
            out[f"{path.stem}.src_lines"] = n
    out["src.lines"] = total
    return out


def layer_totals(records: list[dict]) -> tuple[dict, dict, dict]:
    """Per callee name: [calls, inclusive s, self s]; per (caller, callee):
    calls; and summed counters, over the traced records given."""
    totals: dict[str, list] = {}
    edges: dict[tuple[str, str], int] = {}
    counters: dict[str, int] = {}
    for r in records:
        for caller, callee, calls, incl, self_s in r["trace"]["aggregates"]:
            t = totals.setdefault(callee, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl
            t[2] += self_s
            edges[(caller, callee)] = edges.get((caller, callee), 0) + calls
        for k, v in r["trace"]["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return totals, edges, counters


def span_seconds(records: list[dict], name: str, minus_children: str | None = None) -> float:
    """Summed duration of the spans called `name`, less that of their child
    spans called `minus_children`."""
    total = 0.0
    for r in records:
        spans = r["trace"]["spans"]
        for i, (sname, start, end, _) in enumerate(spans):
            if sname != name:
                continue
            total += end - start
            if minus_children:
                total -= sum(e - s for n, s, e, p in spans if p == i and n == minus_children)
    return total


STAGES = ["general_type", "fixator_pair", "half_tree_fixation", "orbit_truncate",
          "disjoint_support", "annihilation", "commute", "serialize"]


def per_layer(reference: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of one traced pass; certify operations only, except
    for verify.self_s (verify operations) and cli.self_s (both)."""
    certify = [r for r in traced if r["op"] == "certify"]
    verify = [r for r in traced if r["op"] == "verify"]
    totals, edges, counters = layer_totals(certify)
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"stage.{stage}_s"] = span_seconds(certify, f"stage.{stage}")

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    attempted = edges.get(("dynamics.enumerate_products", "portraits.mul"), 0)
    distinct = counters.get("dynamics.products_distinct", 0)
    m["dynamics.products_attempted"] = attempted
    m["dynamics.products_distinct"] = distinct
    m["dynamics.products_useful_ratio"] = distinct / attempted if attempted else 0.0
    m["dynamics.enumerate_products.self_s"] = self_s("dynamics.enumerate_products")
    for name in ["dynamics.classify_isometry", "dynamics.axis_and_ends",
                 "portraits.end_image_prefix", "portraits.evaluate", "portraits.mul",
                 "portraits.inverse", "portraits.construct", "portraits.canonical",
                 "perm_groups.perm_mul"]:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ["dynamics.fixes_half_tree_pointwise", "perm_groups.perm_construct",
                 "tree_core.check_vertex", "tree_core.neighbor"]:
        m[f"{name}.calls"] = calls(name)
    canon = calls("portraits.canonical")
    m["portraits.canonical.cache_hit_ratio"] = (
        counters.get("portraits.canonical.hits", 0) / canon if canon else 0.0)
    m["cstar.orbit_points"] = sum(r.get("orbit_points", 0) for r in certify)
    m["verify.self_s"] = span_seconds(verify, "verify", minus_children="build_certificate")
    cli_totals, _, _ = layer_totals(traced)
    m["cli.self_s"] = cli_totals.get("cli", [0, 0.0, 0.0])[2]
    m.update(src_lines())
    traced_certify = sum(r["seconds"] for r in certify)
    untraced_certify = sum(r["seconds"] for r in reference if r["op"] == "certify")
    m["trace.overhead_ratio"] = traced_certify / untraced_certify
    m["trace.stage_coverage_ratio"] = sum(m[f"stage.{s}_s"] for s in STAGES) / traced_certify
    return m


def repeated_counts(first: list[dict], second: list[dict]) -> list[str]:
    """Names of counts that differ between two traced certify passes."""
    def counts(records):
        out = {}
        for r in records:
            if r["op"] != "certify" or "trace" not in r:
                continue
            totals, _, counters = layer_totals([r])
            for name, (n, _, _) in totals.items():
                out[f"{r['config']}:{name}.calls"] = n
            for name, n in counters.items():
                out[f"{r['config']}:{name}"] = n
            out[f"{r['config']}:cstar.orbit_points"] = r.get("orbit_points")
        return out

    a, b = counts(first), counts(second)
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


# -- command line ---------------------------------------------------------------------


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def metric_units(trace: int) -> dict[str, str]:
    spec = load_json(ROOT / "BENCHMARK.json")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def host_record(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def measure(configs, seed: int, seconds: float, trace: int, workdir: Path, golden: dict,
            log) -> tuple[dict, list[dict], dict]:
    """Run the workload; return (metrics, every operation record, extras)."""
    rng = random.Random(seed)
    started = time.perf_counter()
    if not trace:
        time_setup()  # the first start compiles bytecode, which a user pays once
        setup = [time_setup() for _ in range(SETUP_SAMPLES)]
        records: list[dict] = []
        passes = 0
        while True:
            t0 = time.perf_counter()
            records += run_pass(configs, rng, workdir, 0, golden, hash_seed=passes, setup=setup)
            passes += 1
            pass_s = time.perf_counter() - t0
            elapsed = time.perf_counter() - started
            log(f"pass {passes}: {pass_s:.2f} s")
            if any(r.get("timeout") for r in records) or elapsed + pass_s > RUN_BUDGET:
                break
            if passes >= MIN_PASSES and elapsed >= seconds:
                break
        setup += [time_setup() for _ in range(SETUP_SAMPLES)]
        failed = sum(not r["ok"] for r in records)
        extras = {"error_rate": failed / len(records), "passes": passes, "setup_samples": setup}
        return end_to_end(records, setup), records, extras
    reference = run_pass(configs, rng, workdir, 0, golden, verify=False)
    first = run_pass(configs, rng, workdir, 1, golden)
    second = run_pass(configs, rng, workdir, 1, golden, verify=False)
    records = reference + first + second
    extras = {"count_mismatches": repeated_counts(first, second),
              "error_rate": sum(not r["ok"] for r in records) / len(records)}
    if not all(r["ok"] for r in reference + first):
        return {}, records, extras
    return per_layer(reference, first), records, extras


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not (SRC / "arboreal" / "cli.py").is_file():
            raise BenchError(f"no arboreal sources under {SRC}")
        golden = load_json(HERE / "golden.json")
        units = metric_units(args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    host = host_record(args.workload, args.seed, args.trace)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        metrics, records, extras = measure(workloads[args.workload], args.seed, args.seconds,
                                           args.trace, workdir, golden,
                                           lambda msg: print(msg, file=sys.stderr))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_1m_end"] = os.getloadavg()[0]

    failed = sum(not r["ok"] for r in records)
    mismatches = extras.get("count_mismatches", [])
    missing = sorted(set(units) - set(metrics))
    correct = failed == 0 and not mismatches and not missing
    print("host " + json.dumps(host, sort_keys=True))
    for r in records:
        if not r["ok"]:
            print(f"failed {r['op']} {r['config']}: {r['reason']}")
    for name in mismatches:
        print(f"count differs between traced passes: {name}")
    if missing:
        print(f"metrics not measured: {', '.join(missing)}")
    print(f"error_rate {extras['error_rate']!r} ratio")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]!r} {unit}")

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"host": host, "metrics": metrics, "extras": extras, "records": records}, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
