#!/usr/bin/env python3
"""ncdn-bench: the repository's benchmark.

Builds this directory's CMake project (the ncdn library plus the
ncdn_bench binary) from source, runs the workloads one process at a time,
checks their outputs, and prints every metric by name with its unit.
BENCHMARK.json at the repository root names the workloads and metrics and
fixes each end-to-end metric's regression bound; the workload specs live
in WORKLOADS below.

  run.py [--seed S] [--seconds T] [--out FILE]
      Every workload: RUNS untraced runs, rotating through the workloads
      in turn, then one traced run each.  Prints the end-to-end and
      per-layer tables and runs every output check; FILE gets the results
      as JSON.
  run.py --trace [--seed S] [--seconds T] [--out FILE]
      The traced runs alone.
  run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
      One run of one workload.  The last line of stdout is one JSON object
      {"correct", "attempted", "failed", "metrics"}: the end-to-end
      metrics with --trace 0, the per-layer metrics with --trace 1.
  run.py compare A.json B.json
      Improved / same / worse / unresolved for every (workload, metric)
      pair of two result files, judged by BENCHMARK.json's bounds.

A run starts one process per session (per sweep for sweep-smoke), so each
process's peak RSS belongs to one workload instance.  Every run first runs
the reference sessions, at the seeds in REFERENCE_SEEDS whatever --seed
is; they alone feed the simulated metrics (rounds, wire bits, decode
delays, completed share), which are therefore pure functions of the code.
Sessions then keep starting while the --seconds budget lasts, session i at
seed S * 1000 + i; they add timing samples.

The benchmark's own CMake tree goes to <dir>/ncdn_bench, where <dir> is
--build, else $CARGO_TARGET_DIR, else .bench_build, so a root build
directory such as build/ can be passed; trace-<workload>.json files land
in <dir>.  A tree whose CMakeCache.txt is not Release, or has NCDN_AUDIT
on, is refused: the audit tier runs superlinear invariant checks, so it is
a different program.

Exit status: 0 when every output check passed, 1 when one failed, 2 on
usage or build errors (with no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GOLDEN = ROOT / "tools" / "ci" / "golden_sweep_n16.json"

Json = dict[str, Any]

# Seeds of the sessions every run executes first, whatever its --seed and
# time budget.
REFERENCE_SEEDS = (1, 2, 3, 4)
# Untraced runs per workload in a full run (no --workload): with seven,
# the quartiles compare uses are the second and sixth runs, so neither
# extreme run sets the spread.
RUNS = 7
# One benchmark process needs a few seconds; a hung one is killed.
PROCESS_TIMEOUT_S = 170

# Sweep cells that may end incomplete by design: a colliding broadcast
# medium jams a clique, bounded recoding buffers starve under loss, and a
# churned content epoch can hit its Las-Vegas cap.
BY_DESIGN_STALLS = ("link:perfect[broadcast]", "[buf=", "content:")

# Outputs a traced process must reproduce exactly.
SESSION_COUNTS = ("complete", "rounds", "wire_bits", "xor_words",
                  "arena_allocations", "arena_reuses", "delay_hist")
SWEEP_COUNTS = ("rounds", "wire_bits", "xor_words", "delay_hist", "cells",
                "json_bytes", "incomplete")
# setup_s is well under a millisecond on most workloads; a change smaller
# than this is not a regression whatever its relative size.
SETUP_SLACK_S = 0.002


class BenchError(Exception):
    """A build, usage or process failure: exit 2 with no result."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the binary's subcommand: "session" or "sweep"
    args: tuple[str, ...]
    coded: bool = False  # runs an rlnc-* protocol (has a count pass)

    @property
    def sweep(self) -> bool:
        return self.command == "sweep"


def session(alg: str, adv: str, params: str,
            link: str = "") -> tuple[str, ...]:
    out = ["--alg", alg, "--adv", adv]
    if link:
        out += ["--link", link]
    for kv in params.split():
        out += ["--param", kv]
    return tuple(out)


SPREAD = "k=64 d=8 b=64 placement=random-spread"

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("gen-1k", "session", session(
            "rlnc-gen", "t-interval-random",
            f"n=1024 {SPREAD} gen_size=16 band_overlap=4 t=4"), coded=True),
        Workload("dense-384", "session", session(
            "rlnc-direct", "permuted-path",
            "n=384 k=384 d=16 b=400 placement=one-per-node"), coded=True),
        Workload("lossy-churn", "session", session(
            "rlnc-direct", "churn", f"n=1024 {SPREAD}",
            link="gilbert-elliott,delay_max=2"), coded=True),
        Workload("forward-2k", "session", session(
            "token-forwarding-pipelined", "t-interval-random",
            f"n=2048 {SPREAD} t=4")),
        # The smoke tier x 4 seeds on 2 threads, fixed in ncdn_bench.cpp.
        Workload("sweep-smoke", "sweep", ()),
    )
}


def load_definition() -> Json:
    path = ROOT / "BENCHMARK.json"
    try:
        definition: Json = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {path}: {err}") from err
    names = [w["name"] for w in definition["workloads"]]
    if names != list(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {names} do not match "
                         f"run.py's {list(WORKLOADS)}")
    return definition


# --- build -----------------------------------------------------------------


def run_tool(argv: list[str]) -> None:
    try:
        proc = subprocess.run(argv, stdout=sys.stderr, check=False,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"{argv[0]} failed: {err}") from err
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}")


def read_cache(cache: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in cache.read_text().splitlines():
        if line.startswith(("#", "//")) or "=" not in line:
            continue
        key, value = line.split("=", 1)
        out[key.split(":", 1)[0]] = value
    return out


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the binary in <build_dir>/ncdn_bench;
    returns its path."""
    tree = build_dir / "ncdn_bench"
    cache = tree / "CMakeCache.txt"
    if not cache.exists():
        run_tool(["cmake", "-S", str(HERE), "-B", str(tree),
                  "-DCMAKE_BUILD_TYPE=Release"])
    values = read_cache(cache)
    home = values.get("CMAKE_HOME_DIRECTORY", "")
    if not home or Path(home).resolve() != HERE:
        raise BenchError(f"{tree} is a build of {home or 'nothing'}, "
                         f"not of {HERE}; pass another --build directory")
    build_type = values.get("CMAKE_BUILD_TYPE") or "default"
    if build_type != "Release":
        raise BenchError(f"{tree} is a {build_type} build; the "
                         "benchmark measures Release builds only")
    if values.get("NCDN_AUDIT", "OFF").upper() in ("ON", "1", "TRUE", "YES"):
        raise BenchError(f"{tree} has NCDN_AUDIT=ON; audit builds run "
                         "superlinear invariant checks and are not measured")
    run_tool(["cmake", "--build", str(tree), "--target", "ncdn_bench",
              "-j", str(os.cpu_count() or 1)])
    return tree / "ncdn_bench"


# --- one process -----------------------------------------------------------


def sub_seed(seed: int, index: int) -> int:
    return (seed * 1000 + index) % 2**64


def run_process(binary: Path, workload: Workload, seed: int, mode: str,
                extra: tuple[str, ...] = ()) -> Json:
    argv = [str(binary), workload.command, *workload.args, "--seed",
            str(seed), "--mode", mode, *extra]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              check=False, timeout=PROCESS_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        raise BenchError(f"{workload.name}: {err}") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload.name} (seed {seed}, {mode}) exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    out: Json = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


# --- statistics ------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pooled(hists: list[list[int]]) -> list[int]:
    out = [0] * max((len(h) for h in hists), default=0)
    for h in hists:
        for bucket, count in enumerate(h):
            out[bucket] += count
    return out


def delay_percentile(hist: list[int], pct: int) -> int:
    """Nearest rank over a delay histogram, as the session computes it."""
    rank = pct * (sum(hist) - 1) // 100
    seen = 0
    for bucket, count in enumerate(hist):
        seen += count
        if seen > rank:
            return bucket
    return 0


# --- output checks ---------------------------------------------------------


def unexpected_stalls(workload: Workload, out: Json) -> list[str]:
    """Sessions that threw, or ended incomplete without being a by-design
    stall."""
    if out.get("failed"):
        return [f"{workload.name}: a session threw"]
    if workload.sweep:
        return [f"{workload.name}: cell {name} did not complete"
                for name in out["incomplete"]
                if not any(tag in name for tag in BY_DESIGN_STALLS)]
    if not out["complete"]:
        return [f"{workload.name}: the session did not complete"]
    return []


def golden_problems(workload: Workload, out: Json) -> list[str]:
    if workload.sweep and not out.get("golden_match", False):
        return [f"{workload.name}: the CI golden slice is not byte-identical "
                f"to {GOLDEN.relative_to(ROOT)}"]
    return []


def twin_problems(workload: Workload, plain: Json, traced: Json) -> list[str]:
    """A traced process must reproduce its untraced twin's counts, and
    decode every (node, token) pair to the token's payload."""
    keys = SWEEP_COUNTS if workload.sweep else SESSION_COUNTS
    out = [f"{workload.name}: traced {key} differs from the untraced run"
           for key in keys if plain.get(key) != traced.get(key)]
    if traced.get("pairs_wrong", 0):
        out.append(f"{workload.name}: {traced['pairs_wrong']} of "
                   f"{traced['pairs_checked']} (node, token) pairs did not "
                   "decode to their payload")
    return out


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    problems: list[str]

    @property
    def failed(self) -> int:
        return len(self.problems)


def attempts(out: Json) -> int:
    return int(out.get("cells", 1))


def completed(out: Json) -> int:
    """Sessions (sweep cells) that ran to completion."""
    if out.get("failed"):
        return 0
    if "cells" in out:
        return int(out["cells"]) - len(out["incomplete"])
    return int(bool(out["complete"]))


# --- one run ---------------------------------------------------------------


def plain_run(binary: Path, workload: Workload, seed: int,
              seconds: float) -> RunResult:
    """The reference sessions, then untraced sessions while `seconds`
    last: the end-to-end metrics."""
    deadline = time.monotonic() + seconds
    outs: list[Json] = []
    problems: list[str] = []
    seeds = iter(REFERENCE_SEEDS)
    while len(outs) < len(REFERENCE_SEEDS) or time.monotonic() < deadline:
        golden = ("--golden", str(GOLDEN)) if workload.sweep and not outs \
            else ()
        session_seed = next(seeds, sub_seed(seed, len(outs)))
        out = run_process(binary, workload, session_seed, "plain", golden)
        problems += unexpected_stalls(workload, out)
        if golden:
            problems += golden_problems(workload, out)
        outs.append(out)

    reference = outs[:len(REFERENCE_SEEDS)]
    ran = [o for o in reference if not o.get("failed")]
    if not ran:
        raise BenchError(f"{workload.name}: every reference session threw")
    hist = pooled([o["delay_hist"] for o in ran])
    metrics = {
        "wall_s": median([o["wall_s"] for o in outs]),
        "setup_s": median([s for o in outs for s in o["setup_s"]]),
        "peak_rss_mb": median([o["peak_rss_bytes"] / 2**20 for o in outs]),
        "rounds": statistics.fmean(o["rounds"] for o in ran),
        "wire_bits": statistics.fmean(o["wire_bits"] for o in ran),
        "decode_delay_p50_rounds": float(delay_percentile(hist, 50)),
        "decode_delay_p99_rounds": float(delay_percentile(hist, 99)),
        "completed_share": sum(completed(o) for o in reference)
        / sum(attempts(o) for o in reference),
    }
    return RunResult(metrics, sum(attempts(o) for o in outs), problems)


def layer_s(outs: list[Json], layer: str) -> float:
    return median([o["layers"][layer]["busy_ns"] * 1e-9 for o in outs])


def layer_calls(outs: list[Json], layer: str) -> float:
    return median([float(o["layers"][layer]["calls"]) for o in outs])


def per_layer_metrics(names: list[str], workload: Workload,
                      traced: list[Json], overheads: list[float],
                      count: Json | None) -> dict[str, float]:
    """Medians over the run's traced processes.  Layers a workload never
    enters (the link model without a link, the runner outside the sweep)
    read 0."""
    metrics = dict.fromkeys(names, 0.0)
    metrics["trace.overhead"] = median(overheads)
    first = traced[0]
    metrics["coding.xor_words"] = float(first["xor_words"])
    if workload.sweep:
        for phase in ("expand", "sweep", "json"):
            metrics[f"runner.{phase}_s"] = median(
                [o["runner"][f"{phase}_s"] for o in traced])
        metrics["runner.cells"] = float(first["cells"])
        return metrics

    for layer in ("dynnet.topology", "linkmodel.loss", "coding.build",
                  "coding.encode", "coding.insert", "coding.query"):
        metrics[f"{layer}_s"] = layer_s(traced, layer)
    for layer in ("dynnet.topology", "linkmodel.loss", "coding.encode",
                  "coding.insert", "coding.query"):
        metrics[f"{layer}_calls"] = layer_calls(traced, layer)
    sent = first["copies_sent"]
    inserts = count["inserts"] if count else 0
    rounds_ms = [ns * 1e-6 for o in traced for ns in o["round_ns"]]
    metrics.update({
        "dynnet.edges": float(first["edges"]),
        "linkmodel.copies_sent": float(sent),
        "linkmodel.copies_dropped": float(first["copies_dropped"]),
        "linkmodel.delivered_share":
            first["copies_delivered"] / sent if sent else 0.0,
        "coding.rank_gain_share":
            count["rank_gains"] / inserts if count and inserts else 0.0,
        "round.residual_s": median([o["residual_s"] for o in traced]),
        "round.ms_p50": median(rounds_ms),
        "round.ms_p95": (statistics.quantiles(rounds_ms, n=20)[18]
                         if len(rounds_ms) > 1 else rounds_ms[0]),
        "round.samples": float(len(rounds_ms)),
        "core.arena_allocations": float(first["arena_allocations"]),
        "core.arena_reuses": float(first["arena_reuses"]),
    })
    return metrics


def traced_run(binary: Path, workload: Workload, seed: int, seconds: float,
               trace_file: Path, names: list[str]) -> RunResult:
    """Untraced/traced twins for `seconds` (at least one pair), plus the
    untimed rank-probe pass: the per-layer metrics and the twin checks."""
    deadline = time.monotonic() + seconds
    problems: list[str] = []
    count = None
    if workload.coded:
        count = run_process(binary, workload, sub_seed(seed, 0), "count")
    traced: list[Json] = []
    overheads: list[float] = []
    attempted = 0
    while not traced or time.monotonic() < deadline:
        index = len(traced)
        golden = ("--golden", str(GOLDEN)) if workload.sweep and not index \
            else ()
        trace_out = ("--trace-out", str(trace_file)) if not index else ()
        seed_i = sub_seed(seed, index)
        # Alternate which twin runs first, so drift hits both sides.
        if index % 2 == 0:
            plain = run_process(binary, workload, seed_i, "plain", golden)
            twin = run_process(binary, workload, seed_i, "trace", trace_out)
        else:
            twin = run_process(binary, workload, seed_i, "trace", trace_out)
            plain = run_process(binary, workload, seed_i, "plain", golden)
        problems += unexpected_stalls(workload, plain)
        problems += twin_problems(workload, plain, twin)
        if golden:
            problems += golden_problems(workload, plain)
        attempted += attempts(plain) + attempts(twin)
        traced.append(twin)
        overheads.append(twin["wall_s"] / plain["wall_s"] - 1.0)
    metrics = per_layer_metrics(names, workload, traced, overheads, count)
    return RunResult(metrics, attempted, problems)


# --- reporting -------------------------------------------------------------


def summary(values: list[float], unit: str) -> Json:
    q1, q3 = quartiles(values)
    return {"unit": unit, "median": median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def print_table(title: str, rows: list[tuple[str, str, Json]]) -> None:
    print(f"\n{title}")
    print(f"  {'workload':<12} {'metric':<26} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>3}  unit")
    for workload, metric, s in rows:
        print(f"  {workload:<12} {metric:<26} {s['median']:>14.6g} "
              f"{s['q1']:>14.6g} {s['q3']:>14.6g} {s['n']:>3}  {s['unit']}")


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_all(binary: Path, build_dir: Path, args: argparse.Namespace) -> int:
    definition = load_definition()
    problems: list[str] = []
    doc: Json = {"seed": args.seed, "runs": RUNS, "seconds": args.seconds,
                 "reference_seeds": list(REFERENCE_SEEDS),
                 "nproc": os.cpu_count(), "cpu": cpu_model(),
                 "workloads": {name: {} for name in WORKLOADS}}
    if not args.trace:
        runs: dict[str, list[RunResult]] = {name: [] for name in WORKLOADS}
        for _ in range(RUNS):
            for name, workload in WORKLOADS.items():
                print(f"untraced run: {name}", file=sys.stderr, flush=True)
                result = plain_run(binary, workload, args.seed, args.seconds)
                runs[name].append(result)
                problems += result.problems
        rows = []
        for name in WORKLOADS:
            table = {m["name"]: summary([r.metrics[m["name"]]
                                         for r in runs[name]], m["unit"])
                     for m in definition["end_to_end"]}
            doc["workloads"][name]["end_to_end"] = table
            rows += [(name, key, s) for key, s in table.items()]
        print_table("end-to-end metrics (untraced; over runs)", rows)

    names = [m["name"] for m in definition["per_layer"]]
    units = {m["name"]: m["unit"] for m in definition["per_layer"]}
    rows = []
    for name, workload in WORKLOADS.items():
        print(f"traced run: {name}", file=sys.stderr, flush=True)
        result = traced_run(binary, workload, args.seed, args.seconds,
                            build_dir / f"trace-{name}.json", names)
        problems += result.problems
        table = {key: summary([value], units[key])
                 for key, value in result.metrics.items()}
        doc["workloads"][name]["per_layer"] = table
        rows += [(name, key, s) for key, s in table.items()]
    print_table("per-layer metrics (traced run)", rows)
    print(f"\ntrace files: {build_dir}/trace-<workload>.json")

    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for problem in sorted(set(problems)):
        print(f"CHECK FAILED: {problem}")
    print("every output check passed" if not problems
          else f"{len(set(problems))} output check(s) failed")
    return 1 if problems else 0


def run_one(binary: Path, build_dir: Path, args: argparse.Namespace) -> int:
    definition = load_definition()
    workload = WORKLOADS[args.workload]
    if args.trace:
        wanted = definition["per_layer"]
        result = traced_run(binary, workload, args.seed, args.seconds,
                            build_dir / f"trace-{workload.name}.json",
                            [m["name"] for m in wanted])
    else:
        wanted = definition["end_to_end"]
        result = plain_run(binary, workload, args.seed, args.seconds)
    metrics = {m["name"]: {"value": result.metrics[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']!r} {m['unit']}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not result.problems,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 1 if result.problems else 0


# --- compare ---------------------------------------------------------------


def verdict(metric: Json, a: Json, b: Json) -> str:
    """B against A.  Unresolved when A's own interquartile spread is wider
    than the bound, unless every B run beats every A run; improved only when
    every B run beats every A run and the medians differ by more than A's
    spread.  A bound of 0 makes any change worse or improved."""
    lower = metric["better"] == "lower"
    a_med, b_med = float(a["median"]), float(b["median"])
    worse_by = b_med - a_med if lower else a_med - b_med
    a_spread = float(a["q3"]) - float(a["q1"])
    beats_all = (max(b["values"]) < min(a["values"]) if lower
                 else min(b["values"]) > max(a["values"]))
    allowed = metric["bound"] * abs(a_med)
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_SLACK_S)
    if a_spread > allowed:
        return "improved" if beats_all else "unresolved"
    if worse_by > allowed:
        return "worse"
    if beats_all and -worse_by > a_spread:
        return "improved"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    definition = load_definition()
    try:
        doc_a = json.loads(Path(path_a).read_text())
        doc_b = json.loads(Path(path_b).read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read results: {err}") from err
    for key in ("seconds", "reference_seeds"):
        if doc_a.get(key) != doc_b.get(key):
            print(f"note: the files differ in {key}: {doc_a.get(key)} vs "
                  f"{doc_b.get(key)}")
    worse = 0
    print(f"{'workload':<12} {'metric':<26} {'A':>14} {'B':>14} "
          f"{'change':>8}  verdict")
    for name in WORKLOADS:
        table_a = doc_a["workloads"].get(name, {}).get("end_to_end")
        table_b = doc_b["workloads"].get(name, {}).get("end_to_end")
        if not table_a or not table_b:
            print(f"{name:<12} missing from one file")
            continue
        for metric in definition["end_to_end"]:
            key = metric["name"]
            if key not in table_a or key not in table_b:
                print(f"{name:<12} {key:<26} missing from one file")
                continue
            a, b = table_a[key], table_b[key]
            v = verdict(metric, a, b)
            worse += v == "worse"
            change = b["median"] / a["median"] - 1.0 if a["median"] else 0.0
            print(f"{name:<12} {key:<26} {a['median']:>14.6g} "
                  f"{b['median']:>14.6g} {change:>+8.2%}  {v}")
    return 1 if worse else 0


# --- main ------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="ncdn-bench: build, run and check the benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="time budget of one run (default: the "
                        "reference sessions only)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--build", help="build directory")
    parser.add_argument("--out", help="write the results here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def main(argv: list[str]) -> int:
    try:
        if argv[:1] == ["compare"]:
            if len(argv) != 3:
                print("usage: run.py compare A.json B.json", file=sys.stderr)
                return 2
            return compare(argv[1], argv[2])
        args = parse_args(argv)
        load_definition()
        build_dir = Path(args.build or os.environ.get("CARGO_TARGET_DIR")
                         or ".bench_build").resolve()
        binary = build(build_dir)
        if args.workload:
            return run_one(binary, build_dir, args)
        return run_all(binary, build_dir, args)
    except BenchError as err:
        print(f"ncdn-bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
