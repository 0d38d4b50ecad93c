"""Benchmark harness: inputs, set-up timing, the measured CLI loop, the traced
in-process run, output checks, and the result line.

With ``--trace 0`` each workload's CLI commands run as child processes, as a
user would run them, and the end-to-end metrics are printed; meanwhile the
fixed ``reference.py`` runs on the other CPU and the timings are scaled by
its pace (see ``Pace``).  With
``--trace 1`` the same commands run twice in this process through
``neuralbrane.cli.main``: once plain and once with the span tracer
installed, and the per-layer metrics are printed.  Either way the last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import layers
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_cache"

SETUP_REPEATS = 3  # at least this many set-up probes,
SETUP_SECONDS = 3.0  # and more until this long has been spent on them
RUN_BUDGET_S = 150.0  # no new command starts once this could be overrun
CACHED_SEEDS = 3  # input sets kept per workload and scale
# Timings are reported in seconds of a clock that ticks once per repetition
# of reference.py's computation, running meanwhile on the other CPU, and
# reaches one tick per REFERENCE_S seconds on a host at its usual speed.
REFERENCE_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for at least this long (always every command once)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy inputs finish in seconds; for the benchmark's own tests")
    return p.parse_args(argv)


# -- environment ------------------------------------------------------------

def _git_sha() -> str:
    """HEAD's commit from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "neuralbrane").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "pinned_env": {k: os.environ.get(k) for k in sorted(os.environ)
                       if k.endswith("_THREADS") or k == "NEURAL_BRANE_LOG"},
    }


# -- inputs -------------------------------------------------------------------

def prepare_inputs(w, scale: str, seed: int):
    spec = w.specs[scale]
    base = WORK / "inputs"
    directory = base / f"{w.name}-{scale}-seed{seed}"
    manifest = inputs.cached(spec, seed, directory)
    siblings = sorted(base.glob(f"{w.name}-{scale}-seed*"), key=lambda p: p.stat().st_mtime)
    for old in siblings[:-CACHED_SEEDS]:
        if old != directory:
            shutil.rmtree(old, ignore_errors=True)
    return spec, directory, manifest


def setup_probe(w, spec, directory: Path, seed: int):
    """Command that times one set-up in a fresh process (see setup_probe.py)."""
    ready = (["--checkpoint", str(directory / "model.ckpt")] if w.embed
             else ["--sampler-seed", str(seed)])
    return [sys.executable, str(HERE / "setup_probe.py"), str(directory / "edges.txt"),
            str(directory / "attrs.txt"), str(spec.nodes), str(spec.attrs), *ready]


# -- running commands ----------------------------------------------------------

def run_child(argv, out: Path, label: str, timeout: float) -> dict:
    """Run one command through launch.py: its exit code, wall and CPU seconds
    and peak RSS.  Its output goes to ``out/<label>.stdout`` and ``.stderr``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), f"{max(timeout, 1.0):.1f}",
         str(out / f"{label}.stdout"), str(out / f"{label}.stderr"), "--", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class Pace:
    """reference.py running on the other CPU for the length of a ``with``
    block; ``scaled(start, end)`` is that interval in its ticks.

    Each repetition of the reference computation is one tick of
    ``REFERENCE_S`` seconds; a repetition that overlaps the interval counts
    for the share of it that does.  A command timed on a host that is slow
    for that minute takes longer, but the reference ticks slower too, so
    the scaled time keeps what the command itself costs and drops most of
    the drift.  On a single CPU nothing runs alongside and ``scaled``
    returns wall seconds.
    """

    def __init__(self):
        self.stamps: list[tuple[float, float]] = []
        self.proc = None

    def __enter__(self):
        if len(os.sched_getaffinity(0)) >= 2:
            self.proc = subprocess.Popen([sys.executable, str(HERE / "reference.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         cwd=ROOT, text=True)
            self.proc.stdout.readline()  # "ready": its first repetition has begun
        return self

    def __exit__(self, *exc):
        if self.proc is None:
            return
        try:
            out, _ = self.proc.communicate(timeout=30)  # closes its stdin: stop
        finally:
            self.proc.kill()
            self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"reference.py exited with code {self.proc.returncode}")
        self.stamps = [tuple(pair) for pair in json.loads(out)]

    def scaled(self, start: float, end: float) -> float:
        if self.proc is None:
            return end - start
        ticks = sum(max(0.0, min(end, b) - max(start, a)) / (b - a) for a, b in self.stamps)
        if ticks == 0 or start < self.stamps[0][0] or end > self.stamps[-1][1]:
            raise RuntimeError("reference.py did not run for the whole of a timed interval")
        return ticks * REFERENCE_S

    def summary(self) -> dict:
        lengths = [b - a for a, b in self.stamps]
        return {"ticks": len(lengths),
                "tick_s_median": statistics.median(lengths) if lengths else None}


def run_in_process(main, argv, out: Path, label: str) -> tuple[int, float]:
    """Call ``cli.main`` in this process, its stdout sent to a file."""
    with open(out / f"{label}.stdout", "w", encoding="utf-8") as so, \
            contextlib.redirect_stdout(so):
        started = time.perf_counter()
        code = main(argv)
        return code, time.perf_counter() - started


def check_outputs(w, spec, directory: Path, out: Path, seed: int, digests: dict) -> dict:
    """Problems per command label, plus the final training loss if any."""
    problems = {}
    emb = out / "emb.txt"
    producer = "embed" if w.embed else "train"
    vectors, found = workloads.check_embedding(emb, spec.nodes, workloads.HIDDEN)
    if vectors is not None and w.embed:
        found += workloads.check_embed_values(vectors, directory, spec, seed)
    if emb.is_file():
        digest = hashlib.sha256(emb.read_bytes()).hexdigest()
        expected = digests.setdefault(source_digest(), digest)
        if digest != expected:
            found.append("embedding bytes differ from an earlier run of this seed")
    loss = None
    if not w.embed:
        loss, more = workloads.check_losses(out / "train.csv")
        found += more
    problems[producer] = found
    if w.evaluate:
        for task in ("classify", "cluster"):
            problems[task] = workloads.check_scores(out / f"{task}.csv")
    return {"problems": problems, "train_loss_final": loss}


# -- the two modes ---------------------------------------------------------------

def measure(args, w, spec, directory: Path, run_dir: Path, digests: dict, started: float):
    attempted = failed = 0
    run_dir.mkdir(parents=True)
    setup, setup_problems = [], []  # (start, end) of each set-up; failures
    probing = time.perf_counter()
    pace = Pace()
    with pace:
        while (len(setup) + len(setup_problems) < SETUP_REPEATS
               or time.perf_counter() - probing < SETUP_SECONDS):
            label = f"setup{len(setup) + len(setup_problems)}"
            code = run_child(setup_probe(w, spec, directory, args.seed), run_dir, label,
                             RUN_BUDGET_S - (time.perf_counter() - started))["exit"]
            attempted += 1
            if code == 0:
                setup.append(tuple(map(float, (run_dir / f"{label}.stdout").read_text().split())))
            else:
                failed += 1
                setup_problems.append(f"{label}: exit code {code}")
        # The workload's commands repeat in order until --seconds have passed.
        # Measuring may stop between two commands of a round once every command
        # has run at least once, so a run overshoots by at most one command.
        samples = []
        runs: dict[str, list[dict]] = {}  # label -> that command's records, in order
        measuring = time.perf_counter()
        finished = False
        while not finished:
            out = run_dir / f"iter{len(samples)}"
            out.mkdir(parents=True)
            record = {"commands": {}}
            for label, argv in workloads.commands(w, spec, directory, out, args.seed):
                now = time.perf_counter()
                if samples and (now - measuring >= args.seconds
                                or now - started + max(c["wall_s"] for c in runs[label])
                                > RUN_BUDGET_S):
                    finished = True
                    break
                remaining = RUN_BUDGET_S + 25.0 - (now - started)
                record["commands"][label] = run_child(
                    [sys.executable, "-m", "neuralbrane.cli", *argv], out, label, remaining)
                runs.setdefault(label, []).append(record["commands"][label])
            if record["commands"]:
                checked = check_outputs(w, spec, directory, out, args.seed, digests)
                for label, cmd in record["commands"].items():
                    cmd["problems"] = checked["problems"].get(label, [])
                    if cmd["exit"] != 0:
                        cmd["problems"].append(f"exit code {cmd['exit']}")
                    attempted += 1
                    failed += bool(cmd["problems"])
                record["train_loss_final"] = checked["train_loss_final"]
                samples.append(record)
            shutil.rmtree(out, ignore_errors=True)
            finished = finished or time.perf_counter() - measuring >= args.seconds

    for cmds in runs.values():
        for c in cmds:
            c["scaled_s"] = pace.scaled(c["start"], c["end"])
    scaled = {
        "setup_s": statistics.median(pace.scaled(a, b) for a, b in setup) if setup else 0.0,
        "pipeline_s": sum(statistics.median(c["scaled_s"] for c in cmds)
                          for cmds in runs.values()),
    }
    wall = {
        "setup_s": statistics.median(b - a for a, b in setup) if setup else 0.0,
        "pipeline_s": sum(statistics.median(c["wall_s"] for c in cmds)
                          for cmds in runs.values()),
    }
    metrics = dict(scaled)
    metrics["peak_rss_mb"] = max(statistics.median(c["peak_rss_mb"] for c in cmds)
                                 for cmds in runs.values())
    detail = {"setup_s_samples": [b - a for a, b in setup], "setup_problems": setup_problems,
              "iterations": samples, "wall": wall, "pace": pace.summary()}
    return metrics, detail, attempted, failed


def traced(args, w, spec, directory: Path, run_dir: Path, digests: dict):
    from neuralbrane import cli

    attempted = failed = 0
    walls = {}
    problems = {}
    tracer = Tracer(layers.HOOKS)
    main = tracer.wrap("cli.main", cli.main)
    for mode in ("untraced", "traced"):
        out = run_dir / mode
        out.mkdir(parents=True)
        if mode == "traced":
            tracer.install("neuralbrane", layers.TRACED_MODULES)
        try:
            walls[mode] = 0.0
            codes = {}
            for run_id, (label, argv) in enumerate(
                    workloads.commands(w, spec, directory, out, args.seed)):
                tracer.run_id = run_id
                code, wall = run_in_process(main if mode == "traced" else cli.main,
                                            argv, out, label)
                codes[label] = code
                walls[mode] += wall
        finally:
            tracer.uninstall()
        checked = check_outputs(w, spec, directory, out, args.seed, digests)
        for label, code in codes.items():
            found = checked["problems"].get(label, []) + ([f"exit code {code}"] if code else [])
            problems[f"{mode}.{label}"] = found
            attempted += 1
            failed += bool(found)
        shutil.rmtree(out, ignore_errors=True)

    table = tracer.table()
    table.save(WORK / "results" / f"spans-{w.name}-{args.scale}.npz")
    metrics, not_observed = layers.per_layer_metrics(
        table, tracer.counters, walls["traced"], walls["untraced"])
    detail = {"wall_s": walls, "spans": len(table), "problems": problems,
              "not_observed": not_observed, "hook_errors": dict(tracer.hook_errors),
              "counters": dict(tracer.counters)}
    return metrics, detail, attempted, failed


# -- entry ---------------------------------------------------------------------------

def report(args, metrics: dict, units: dict, detail: dict, attempted: int, failed: int) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    print(f"== {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}", file=err)
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(error_rate {failed / attempted:.3f})", file=err)
    if args.trace:
        for label, found in detail["problems"].items():
            for problem in found:
                print(f"  FAILED {label}: {problem}", file=err)
        missing = set(detail["not_observed"])
        for name, value in metrics.items():
            note = "  (not observed)" if name in missing else ""
            print(f"  {name:34s} {value:14.6g} {units[name]}{note}", file=err)
        return
    for problem in detail["setup_problems"]:
        print(f"  FAILED {problem}", file=err)
    per_command: dict[str, list[float]] = {}
    for it in detail["iterations"]:
        for label, cmd in it["commands"].items():
            per_command.setdefault(f"{label}_s", []).append(cmd["wall_s"])
            for problem in cmd["problems"]:
                print(f"  FAILED {label}: {problem}", file=err)
    for name, value in metrics.items():
        print(f"  {name:20s} {value:12.4f} {units[name]}", file=err)
    pace = detail["pace"]
    print(f"  unscaled: " + ", ".join(f"{k} {v:.4f} s" for k, v in detail["wall"].items())
          + f"; reference.py ran {pace['ticks']} times alongside, "
          f"median {pace['tick_s_median']} s", file=err)
    for name, values in per_command.items():
        print(f"  {name:20s} {statistics.median(values):12.4f} s  "
              f"(median; max {max(values):.4f}, n={len(values)})", file=err)
    losses = [it["train_loss_final"] for it in detail["iterations"]
              if it["train_loss_final"] is not None]
    if losses:
        print(f"  {'train_loss_final':20s} {statistics.median(losses):12.4f}", file=err)


def run(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "neuralbrane" / "cli.py").is_file():
        print(f"perfbench: no neuralbrane sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import neuralbrane
    if Path(neuralbrane.__file__).resolve().parent != SRC / "neuralbrane":
        print(f"perfbench: imported neuralbrane from {neuralbrane.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    spec, directory, manifest = prepare_inputs(w, args.scale, args.seed)
    run_dir = WORK / "runs" / f"{w.name}-{args.scale}-seed{args.seed}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    digest_path = directory / "embedding_digests.json"
    digests = json.loads(digest_path.read_text()) if digest_path.is_file() else {}
    try:
        if args.trace:
            metrics, detail, attempted, failed = traced(args, w, spec, directory, run_dir, digests)
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        else:
            metrics, detail, attempted, failed = measure(
                args, w, spec, directory, run_dir, digests, started)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    digest_path.write_text(json.dumps(digests, indent=1))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": w.name, "why": w.why, "seed": args.seed, "scale": args.scale,
              "trace": args.trace, "seconds": args.seconds, "environment": environment(),
              "inputs": manifest, "result": result, "detail": detail}
    name = f"{w.name}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1, default=float))
    report(args, metrics, units, detail, attempted, failed)
    print(json.dumps(result))
    return 0
