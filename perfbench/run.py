#!/usr/bin/env python3
"""osmrank benchmark: seeded CLI workloads, output checks, and a traced
per-layer breakdown.

Run from the repository root:

  python3 perfbench/run.py --workload train-k10 --seed 0 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all --seed 0 --seconds 120 --out a.json
  python3 perfbench/run.py --compare a.json b.json

See perfbench/README.md for the workloads, the metrics and their units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from typing import Callable

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(HERE, "baseline")  # frozen copy of osmrank: the host-speed yardstick
WORK = os.path.join(HERE, "_work")
REFS = os.path.join(HERE, "refs.json")
INPROC = os.path.join(HERE, "inproc.py")

# Seeds map onto this many input variants, each with stored reference outputs.
VARIANTS = 32
TRAIN_EPOCHS = 2
AIS_TEMPS, AIS_RUNS = 50, 4
SETUP_PROBES = 3  # scaled set-up pairs, after one discarded warm-up probe per tree
RUN_TIMEOUT_S = 60.0
SLACK_S = 140.0  # children are stopped --seconds + SLACK_S after start: 165 s at 25 s
TOL = 1e-9
# The baseline's median seconds per workload (wall, set-up) on the 2-vCPU
# sandbox where the benchmark was defined: the reference host speed.
NOMINAL = {"train-k10": (3.3, 1.3), "eval-k10": (2.0, 1.35), "ais-n200": (3.2, 0.6)}


@dataclass
class Workload:
    name: str
    files: tuple[str, ...]  # inputs linked into the run directory
    setup: tuple[str, str]  # (ratings | "-", checkpoint | "-") for the set-up probe
    argv: Callable[[int], list[str]]  # CLI arguments for a variant
    read: Callable[[str], dict]  # outputs of one run -> result with "work"
    compare: Callable[[dict, dict], list[str]]  # (result, reference) -> problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _read_train(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "train.ck")) as fh:
        text = fh.read()
    rows = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        rows.setdefault(key, []).append([float(v) for v in rest.split()] if key in ("u", "W") else rest)
    nu = float(rows["nu"][0])
    u = np.array(rows["u"][0])
    W = np.array(rows["W"])
    ru = np.sin(np.arange(u.size) + 1.0)
    rw = np.cos(np.arange(W.size) + 1.0).reshape(W.shape)
    fingerprint = [nu, u.sum(), W.sum(), (u * ru).sum(), (W * rw).sum(), np.abs(u).max(), np.abs(W).max()]
    with open(os.path.join(run_dir, "train.log")) as fh:
        header = dict(f.split("=", 1) for f in fh.readline().split() if "=" in f)
    users = int(header["users"])
    return {
        "work": users * TRAIN_EPOCHS,
        "users": users,
        "fingerprint": [float(v) for v in fingerprint],
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _compare_train(got: dict, ref: dict) -> list[str]:
    problems = []
    if got["users"] != ref["users"]:
        problems.append(f"users {got['users']} != {ref['users']}")
    if not all(_close(a, b) for a, b in zip(got["fingerprint"], ref["fingerprint"])):
        problems.append(f"checkpoint fingerprint {got['fingerprint']} != {ref['fingerprint']}")
    return problems


def _read_eval(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "report.txt")) as fh:
        report = fh.read().splitlines()
    with open(os.path.join(run_dir, "per_user.txt"), "rb") as fh:
        per_user = fh.read()
    rows = sum(1 for line in per_user.splitlines() if line.startswith(b"user_row="))
    return {"work": rows, "report": report, "rows": rows, "sha256": hashlib.sha256(per_user).hexdigest()}


def _compare_eval(got: dict, ref: dict) -> list[str]:
    problems = []
    if got["report"] != ref["report"]:
        problems.append(f"report lines differ: {got['report']} != {ref['report']}")
    if got["rows"] != ref["rows"] or got["sha256"] != ref["sha256"]:
        problems.append(f"per-user file differs ({got['rows']} rows, reference {ref['rows']})")
    return problems


def _read_ais(run_dir: str) -> dict:
    values = {}
    with open(os.path.join(run_dir, "z.txt")) as fh:
        for line in fh:
            if line.startswith(("log_z=", "ess=", "run=")):
                fields = dict(f.split("=", 1) for f in line.split())
                if "run" in fields:
                    values.setdefault("log_weights", []).append(float(fields["log_weight"]))
                else:
                    values.update({k: float(v) for k, v in fields.items()})
    return {"work": AIS_RUNS * AIS_TEMPS, **values}


def _compare_ais(got: dict, ref: dict) -> list[str]:
    problems = []
    if not _close(got["log_z"], ref["log_z"]):
        problems.append(f"log_z {got['log_z']!r} != {ref['log_z']!r}")
    weights, ref_weights = got.get("log_weights", []), ref["log_weights"]
    if len(weights) != len(ref_weights) or not all(map(_close, weights, ref_weights)):
        problems.append(f"log weights {weights} != {ref_weights}")
    if not 0.0 < got["ess"] <= AIS_RUNS:
        problems.append(f"ess {got['ess']!r} outside (0, {AIS_RUNS}]")
    return problems


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "train-k10",
            ("ratings.dat",),
            ("ratings.dat", "-"),
            lambda v: ["train", "--data", "ratings.dat", "--hidden", "10", "--epochs", str(TRAIN_EPOCHS),
                       "--seed", str(v), "--out", "train.ck", "--log", "train.log"],
            _read_train,
            _compare_train,
        ),
        Workload(
            "eval-k10",
            ("ratings.dat", "eval.ck"),
            ("ratings.dat", "eval.ck"),
            lambda v: ["eval", "--data", "ratings.dat", "--seed", str(v), "--model", "eval.ck",
                       "--metrics", "ndcg@1,ndcg@5,ndcg@10,err", "--out", "report.txt",
                       "--per-user", "per_user.txt"],
            _read_eval,
            _compare_eval,
        ),
        Workload(
            "ais-n200",
            ("ais.ck",),
            ("-", "ais.ck"),
            lambda v: ["estimate-z", "--model", "ais.ck", "--n-temps", str(AIS_TEMPS),
                       "--n-runs", str(AIS_RUNS), "--seed", str(v), "--out", "z.txt"],
            _read_ais,
            _compare_ais,
        ),
    ]
}

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RAW = {  # unscaled seconds, printed and written to --out beside the metrics
    "raw.wall_s": "s",
    "raw.setup_s": "s",
    "baseline.wall_s": "s",
    "baseline.setup_s": "s",
}


# ---------------------------------------------------------------- processes


def child_env(src: str, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env.pop("OSM_THREADS", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def spawn(argv: list[str], cwd: str, env: dict, timeout: float) -> tuple[int | None, float, float]:
    """Run ``argv`` to its end: (exit code, or None on timeout; wall seconds
    from spawn to exit; peak RSS in MB from the child's rusage)."""
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        pidfd = os.pidfd_open(proc.pid)
        exited = []
        try:
            exited = select.select([pidfd], [], [], timeout)[0]
        finally:
            if not exited:  # timed out or interrupted
                os.killpg(proc.pid, signal.SIGKILL)  # the unreaped leader keeps the group id
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode if exited else None), wall, usage.ru_maxrss / 1024.0


def stderr_tail(run_dir: str) -> str:
    try:
        with open(os.path.join(run_dir, "stderr.txt"), errors="replace") as fh:
            lines = fh.read().strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


# ------------------------------------------------------------------ inputs


def variant_inputs(variant: int) -> dict:
    """The inputs of one seed variant, generated again whenever inputs.py changes."""
    directory = os.path.join(WORK, "inputs", f"v{variant}")
    stamp = os.path.join(directory, "shape.json")
    with open(inputs.__file__, "rb") as fh:
        generator = hashlib.sha256(fh.read()).hexdigest()
    try:
        with open(stamp) as fh:
            shape = json.load(fh)
    except (OSError, ValueError):
        shape = {}
    if shape.get("generator") != generator:
        shutil.rmtree(directory, ignore_errors=True)
        shape = {**inputs.make_inputs(directory, variant), "generator": generator}
        with open(stamp, "w") as fh:
            json.dump(shape, fh)
    return {"dir": directory, **shape}


def fresh_run_dir(workload: Workload, data: dict) -> str:
    """An empty run directory holding only links to the workload's inputs."""
    run_dir = os.path.join(WORK, "runs", workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    for name in workload.files:
        os.link(os.path.join(data["dir"], name), os.path.join(run_dir, name))
    return run_dir


# -------------------------------------------------------------- measuring


class Session:
    """Runs one workload for one seed and keeps its samples."""

    def __init__(self, workload: Workload, seed: int, refs: dict | None, limit_s: float):
        self.w = workload
        self.end = time.perf_counter() + limit_s
        self.variant = seed % VARIANTS
        self.data = variant_inputs(self.variant)
        self.ref = None if refs is None else refs[workload.name][str(self.variant)]
        self.first_sha: dict[str, str] = {}  # per source tree
        self.samples: dict[str, list[float]] = {k: [] for k in {**END_TO_END, **RAW}}
        self.pairs = 0
        self.attempted = 0
        self.failed = 0
        self.last: dict = {}

    def timeout(self) -> float:
        return min(RUN_TIMEOUT_S, max(1.0, self.end - time.perf_counter()))

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"# FAIL {self.w.name} variant={self.variant}: {what}", flush=True)

    def check(self, run_dir: str, rc: int | None, src: str = SRC) -> dict | None:
        """Read and check one run's outputs; None (and a failure) if wrong."""
        who = "" if src == SRC else "baseline "
        if rc != 0:
            self.fail(f"{who}timed out" if rc is None else f"{who}exit code {rc}: {stderr_tail(run_dir)}")
            return None
        try:
            result = self.w.read(run_dir)
            problems = [] if self.ref is None else self.w.compare(result, self.ref)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self.fail(f"{who}unreadable outputs: {exc!r}")
            return None
        if self.first_sha.setdefault(src, result.get("sha256")) != result.get("sha256"):
            problems.append("output differs from this invocation's first run")
        if problems:
            self.fail(who + "; ".join(problems))
            return None
        self.last = result
        return result

    def pair_order(self) -> tuple[str, str]:
        """Program and baseline, the order alternating from pair to pair."""
        self.pairs += 1
        return (SRC, BASELINE) if self.pairs % 2 else (BASELINE, SRC)

    def setup_probe(self, src: str) -> float | None:
        """Seconds a fresh interpreter takes to import and load the inputs."""
        run_dir = fresh_run_dir(self.w, self.data)
        argv = [sys.executable, INPROC, "setup", str(self.variant), *self.w.setup]
        rc, wall, _ = spawn(argv, run_dir, child_env(src), self.timeout())
        self.attempted += 1
        if rc != 0:
            self.fail(f"set-up probe exit code {rc} ({src}): {stderr_tail(run_dir)}")
            return None
        return wall

    def setup_pair(self) -> None:
        walls = {src: self.setup_probe(src) for src in self.pair_order()}
        if None not in walls.values():
            self.samples["setup_s"].append(NOMINAL[self.w.name][1] * walls[SRC] / walls[BASELINE])
            self.samples["raw.setup_s"].append(walls[SRC])
            self.samples["baseline.setup_s"].append(walls[BASELINE])

    def cli_run(self, src: str) -> tuple[float, float, dict] | None:
        """One checked CLI run of the tree ``src``: (wall s, peak RSS MB, result)."""
        run_dir = fresh_run_dir(self.w, self.data)
        argv = [sys.executable, "-m", "osmrank.cli", *self.w.argv(self.variant)]
        rc, wall, rss = spawn(argv, run_dir, child_env(src), self.timeout())
        self.attempted += 1
        result = self.check(run_dir, rc, src)
        return None if result is None else (wall, rss, result)

    def timed_pair(self) -> None:
        """A program run and a baseline run back to back.  The program's wall
        time is scaled by NOMINAL / baseline wall, so host speed cancels."""
        runs = {src: self.cli_run(src) for src in self.pair_order()}
        if None in runs.values():
            return
        (wall, rss, result), base_wall = runs[SRC], runs[BASELINE][0]
        scaled = NOMINAL[self.w.name][0] * wall / base_wall
        self.samples["wall_s"].append(scaled)
        self.samples["work_per_s"].append(result["work"] / scaled)
        self.samples["peak_rss_mb"].append(rss)
        self.samples["raw.wall_s"].append(wall)
        self.samples["baseline.wall_s"].append(base_wall)

    def inproc_run(self, trace: bool, run_id: int) -> dict | None:
        """One in-process main(argv) in a fresh child, eval kept sequential."""
        run_dir = fresh_run_dir(self.w, self.data)
        out_json = os.path.join(run_dir, "inproc.json")
        spans_tsv = os.path.join(WORK, f"spans-{self.w.name}.tsv")
        argv = [sys.executable, INPROC, "main", "1" if trace else "0", str(run_id), out_json, spans_tsv, "--",
                *self.w.argv(self.variant)]
        rc, _, _ = spawn(argv, run_dir, child_env(SRC, {"OSM_THREADS": "1"}), self.timeout())
        self.attempted += 1
        if self.check(run_dir, rc) is None:
            return None
        with open(out_json) as fh:
            return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    out = {}
    for name, values in samples.items():
        if values:
            q1, median, q3 = quartiles(values)
            out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values), "unit": units[name]}
    return out


def measure(sessions: list[Session], seconds: float) -> None:
    """Set-up probes first, then timed CLI runs until ``seconds`` have passed,
    one pair per workload per set, alternating the order between sets."""
    for s in sessions:
        for src in (SRC, BASELINE):
            s.setup_probe(src)  # warm-up of the file and bytecode caches; not a sample
    for _ in range(SETUP_PROBES):
        for s in sessions:
            s.setup_pair()
    deadline = time.perf_counter() + seconds
    order = list(sessions)
    while True:
        for s in order:
            s.timed_pair()
        order.reverse()
        if time.perf_counter() >= deadline:
            break


def measure_traced(session: Session, seconds: float) -> dict:
    """Pairs of untraced and traced in-process runs (order alternating) until
    ``seconds`` have passed; per-layer metrics are medians over the pairs."""
    import spans

    deadline = time.perf_counter() + seconds
    layers: dict[str, list[float]] = {}
    imports, ratios, counts = [], [], []
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        runs = {}
        for trace in (False, True) if pair % 2 == 0 else (True, False):
            runs[trace] = session.inproc_run(trace, pair)
        pair += 1
        if runs[False] is None or runs[True] is None:
            continue
        imports += [runs[False]["import_s"], runs[True]["import_s"]]
        ratios.append(runs[True]["main_s"] / runs[False]["main_s"])
        values = spans.layer_metrics(
            runs[True]["trace"],
            records=session.data["records"] if "ratings.dat" in session.w.files else 0,
            temp_steps=AIS_RUNS * AIS_TEMPS if session.w.name == "ais-n200" else 0,
        )
        values["pipeline.users_scored"] = session.last.get("rows", 0)
        counts.append({k: v for k, v in values.items() if isinstance(v, int) or k == "sampler.split_share"})
        for k, v in values.items():
            layers.setdefault(k, []).append(v)
    if counts and any(c != counts[0] for c in counts):
        session.fail(f"per-layer counts differ between traced runs: {counts}")
    if not ratios:
        return {}
    metrics = {k: v[0] if isinstance(v[0], int) else statistics.median(v) for k, v in layers.items()}
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return metrics


# ------------------------------------------------------------------ output


def machine_info() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "loadavg": list(os.getloadavg()),
    }


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def compare_files(path_a: str, path_b: str) -> None:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    spec = load_benchmark_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"# a: {path_a} {a['machine']}")
    print(f"# b: {path_b} {b['machine']}")
    print(f"{'workload':<10} {'metric':<34} {'a median':>12} {'b median':>12} {'b/a':>8}  note")
    for wl, metrics_a in a["workloads"].items():
        metrics_b = b["workloads"].get(wl, {})
        for name, ma in metrics_a.items():
            mb = metrics_b.get(name)
            if mb is None:
                print(f"{wl:<10} {name:<34} {ma['median']:>12.6g} {'-':>12} {'-':>8}  missing in b")
                continue
            if not ma["median"]:
                print(f"{wl:<10} {name:<34} {ma['median']:>12.6g} {mb['median']:>12.6g} {'-':>8}  zero in a")
                continue
            ratio = mb["median"] / ma["median"]
            q1, q3 = ma.get("q1", ma["median"]), ma.get("q3", ma["median"])  # traced files have no quartiles
            spread = (q3 - q1) / ma["median"]
            lower_better = better.get(name, "lower") == "lower"
            direction = "better" if (ratio < 1) == lower_better else "worse"
            if abs(ratio - 1) <= spread:
                direction = "within a's spread"
            print(f"{wl:<10} {name:<34} {ma['median']:>12.6g} {mb['median']:>12.6g} {ratio:>8.4f}  "
                  f"{direction} (a spread {spread:.3f}, n {ma.get('n', 1)}/{mb.get('n', 1)}, {ma['unit']})")


def make_refs() -> None:
    """Run every workload once per variant and store the outputs as references."""
    refs = {name: {} for name in WORKLOADS}
    for variant in range(VARIANTS):
        for name, w in WORKLOADS.items():
            s = Session(w, variant, None, limit_s=RUN_TIMEOUT_S)
            if s.cli_run(SRC) is None:
                sys.exit(f"reference run failed: {name} variant {variant}")
            refs[name][str(variant)] = {k: v for k, v in s.last.items() if k != "work"}
            print(f"# ref {name} v{variant}: {json.dumps(refs[name][str(variant)])[:120]}", flush=True)
    with open(REFS, "w") as fh:
        json.dump({"variants": VARIANTS, **refs}, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the summary (with quartiles) to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print b/a ratios of two --out files")
    parser.add_argument("--make-refs", action="store_true", help="rewrite refs.json from this checkout")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through spawn's clean-up

    if args.compare:
        compare_files(*args.compare)
        return 0
    if not os.path.isfile(os.path.join(SRC, "osmrank", "cli.py")):
        print(f"perfbench: no osmrank sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    if args.make_refs:
        make_refs()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    with open(REFS) as fh:
        refs = json.load(fh)
    if refs.get("variants") != VARIANTS:
        print("perfbench: refs.json does not match the variant count", file=sys.stderr)
        return 2

    machine = machine_info()
    print(f"# machine {json.dumps(machine)}", flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    setup_start = time.perf_counter()
    sessions = [Session(WORKLOADS[n], args.seed, refs, args.seconds + SLACK_S) for n in names]
    print(f"# inputs ready in {time.perf_counter() - setup_start:.2f} s "
          f"(seed {args.seed} -> variant {sessions[0].variant})", flush=True)

    spec = load_benchmark_spec()
    results: dict[str, dict] = {}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for s in sessions:
            values = measure_traced(s, args.seconds / len(sessions))
            results[s.w.name] = {k: {"median": v, "unit": units[k]} for k, v in values.items()}
    else:
        measure(sessions, args.seconds)
        for s in sessions:
            results[s.w.name] = summarize(s.samples, {**END_TO_END, **RAW})

    attempted = sum(s.attempted for s in sessions)
    failed = sum(s.failed for s in sessions)
    for s in sessions:
        print(f"{s.w.name} error_rate value={s.failed / max(1, s.attempted)!r} unit=ratio "
              f"failed={s.failed} attempted={s.attempted}")
        for name, m in results[s.w.name].items():
            quart = f" q1={m['q1']!r} q3={m['q3']!r} n={m['n']}" if "q1" in m else ""
            print(f"{s.w.name} {name} median={m['median']!r}{quart} unit={m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"machine": machine, "seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results}, fh, indent=1)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for s in sessions:
        prefix = f"{s.w.name}." if len(sessions) > 1 else ""
        for name in wanted:
            if name not in results[s.w.name]:
                print(f"perfbench: no successful {s.w.name} run gave {name}", file=sys.stderr)
                return 1
            m = results[s.w.name][name]
            metrics[prefix + name] = {"value": m["median"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
