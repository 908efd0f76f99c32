"""outagekit benchmark: seeded corpus, timed sequences, traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload gb_winters --seed 1 --seconds 57 --trace 0

The seed picks the corpus; the program sees only the generated cache,
registry, config and demand CSV.  Each repetition of the workload's
sequence runs in a fresh interpreter (``sequence.py``) as often as fits in
``--seconds``, with at least two repetitions.  With
``--trace 1`` half the time goes to untraced repetitions and half to traced
ones, which report the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit status 2 means the benchmark could not run (for example, no
``src/outagekit`` in the working directory).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent

#: A run must finish within this many seconds, generation included.
RUN_DEADLINE_S = 170.0
#: Set-up samples taken after each untraced repetition, so that set-up is
#: sampled across the whole measuring time, as the sequence is.
SETUP_PER_REP = 2

#: Environment of every measured interpreter.  A fixed hash seed keeps set
#: and dict layouts the same from one repetition to the next, and one BLAS
#: thread keeps the single-threaded pipeline from sharing the host's few
#: cores with idle worker threads.
CHILD_ENV = {
    **os.environ,
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {"wall_s": "s", "data_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# What a CLI user waits for before the first stage can start.
_SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import outagekit.cli
from outagekit.pipeline import PipelineConfig, evaluations
evaluations(PipelineConfig.from_file(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        default="paper",
        help="corpus size: paper (measured), tiny (smoke test), one_winter (gb_winters only)",
    )
    return p.parse_args(argv)


def machine_info() -> dict[str, str]:
    import numpy as np

    info = {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return info


def _setup_sample(root: Path, config_path: Path) -> float:
    """Seconds, in a fresh interpreter, to import the CLI, load the config
    and list its evaluations."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, str(root / "src"), str(config_path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env=CHILD_ENV,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs repetitions of one workload's sequence in fresh interpreters."""

    def __init__(self, root: Path, work: Path, workload, corpus, expected: list[str], deadline: float) -> None:
        self.root = root
        self.work = work
        self.workload = workload
        self.corpus = corpus
        self.expected = expected
        self.deadline = deadline
        self.count = 0

    def rep(self, trace: bool) -> dict:
        self.count += 1
        rep_dir = self.work / f"rep{self.count}"
        rep_dir.mkdir(parents=True)
        job = {
            "src": str(self.root / "src"),
            "config": str(self.corpus.config_path),
            "out_dir": str(rep_dir / "out"),
            "ops": list(self.workload.ops),
            "expected": self.expected,
            "trace": trace,
            "spans_path": str(self.work / f"spans-rep{self.count}.json"),
            "result_path": str(rep_dir / "result.json"),
        }
        job_path = rep_dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        err_path = rep_dir / "stderr.log"
        timeout = max(5.0, self.deadline - perf_counter())
        try:
            with open(err_path, "wb") as err:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "sequence.py"), str(job_path)],
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                    cwd=self.root,
                    timeout=timeout,
                    env=CHILD_ENV,
                )
            ok = proc.returncode == 0
            reason = f"exit status {proc.returncode}"
        except subprocess.TimeoutExpired:
            ok = False
            reason = f"timed out after {timeout:.0f} s"
        if ok:
            result = json.loads(Path(job["result_path"]).read_text(encoding="utf-8"))
        else:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"sequence failed ({reason}):\n{tail}", file=sys.stderr)
            result = {
                "ops": [[name, 0.0, reason] for name in self.workload.ops],
                "wall_s": 0.0,
                "maxrss_kb": 0,
                "checks": [],
                "digest": "",
                "trace": None,
            }
        # The repetition's files stay until the run ends: on ext4 mounted
        # with online discard, deleting thousands of files slows later file
        # creation severalfold for tens of seconds.
        return result

    def reps(
        self, trace: bool, until: float, minimum: int, after_each: Callable[[], None] | None = None
    ) -> list[dict]:
        """Repeat at least ``minimum`` times, then while another fits before ``until``.

        ``after_each`` runs after every repetition.  The next repetition,
        with its ``after_each``, is assumed to take as long as the last one,
        so the measuring time stays within the budget.
        """
        results: list[dict] = []
        while True:
            t0 = perf_counter()
            results.append(self.rep(trace))
            if after_each is not None:
                after_each()
            now = perf_counter()
            if now + (now - t0) > min(until, self.deadline) and len(results) >= minimum:
                return results
            if now + (now - t0) > self.deadline:
                return results


def _side_times(result: dict, op_sides: dict[str, str]) -> dict[str, float]:
    sides = {"data": 0.0, "model": 0.0, "compare": 0.0}
    for name, seconds, _ in result["ops"]:
        sides[op_sides[name]] += seconds
    return sides


def _describe(name: str, values: list[float], unit: str) -> str:
    """Median plus the highest percentile n samples support (their maximum)."""
    return (
        f"{name}: median {statistics.median(values):.4f} {unit}, "
        f"p100 {max(values):.4f} {unit}, n={len(values)} "
        f"[{' '.join(f'{v:.3f}' for v in values)}]"
    )


def _tally(workload: str, results: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over operations, checks and digest comparisons."""
    attempted = failed = 0
    for result in results:
        outcomes = [(f"op {name}", error) for name, _, error in result["ops"]]
        outcomes += [(f"check {name}", problem) for name, problem in result["checks"]]
        for what, problem in outcomes:
            attempted += 1
            if problem:
                failed += 1
                print(f"FAILED {what}: {problem}")
    digests = [r["digest"] for r in results]
    for digest in digests[1:]:
        attempted += 1
        if digest != digests[0]:
            failed += 1
            print(f"FAILED check digest: {digest} != {digests[0]}")
    print(f"digest {workload} {digests[0]} (identical across {len(digests)} sequences: {len(set(digests)) == 1})")
    print(f"ops_failed_frac: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    started = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "outagekit" / "__init__.py").is_file():
        print(
            "perfbench: no src/outagekit under the working directory; "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    from corpus import generate
    from tracer import PER_LAYER, layer_values
    from workloads import SIDES, WORKLOADS, expected_artifacts

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.size not in workload.sizes:
        print(f"perfbench: {workload.name} has sizes {sorted(workload.sizes)}", file=sys.stderr)
        return 2
    spec = workload.sizes[args.size]
    work = root / ".perfbench_work" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = perf_counter()
        corpus = generate(spec, args.seed, work / "corpus")
        generate_s = perf_counter() - t0
        print(f"workload {workload.name} seed {args.seed} size {args.size} trace {args.trace}")
        print("machine " + " ".join(f"{k}={v}" for k, v in machine_info().items()))
        print("corpus " + " ".join(f"{k}={v}" for k, v in corpus.counts.items()))
        print(f"corpus generated in {generate_s:.2f} s")

        setup: list[float] = []
        if not args.trace:
            _setup_sample(root, corpus.config_path)  # compiles bytecode; not counted

        def sample_setup() -> None:
            setup.extend(_setup_sample(root, corpus.config_path) for _ in range(SETUP_PER_REP))

        expected = expected_artifacts(workload, corpus.zones, corpus.evaluations)
        runner = Runner(root, work, workload, corpus, expected, started + RUN_DEADLINE_S)
        t0 = perf_counter()
        if args.trace:
            plain = runner.reps(False, t0 + args.seconds / 2, minimum=1)
            traced = runner.reps(True, t0 + args.seconds, minimum=1)
        else:
            plain = runner.reps(False, t0 + args.seconds, minimum=2, after_each=sample_setup)
            traced = []
    finally:
        spans = sorted(work.glob("spans-rep*.json"))
        if spans:
            keep = root / ".perfbench_work" / "spans"
            keep.mkdir(parents=True, exist_ok=True)
            for path in spans:
                shutil.move(str(path), keep / f"{workload.name}-seed{args.seed}-{path.name}")
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = _tally(workload.name, plain + traced)
    walls = [r["wall_s"] for r in plain]
    sides = [_side_times(r, SIDES) for r in plain]
    print(_describe("wall_s", walls, "s"))
    for side in ("data", "model", "compare"):
        values = [s[side] for s in sides]
        if any(values):
            print(_describe(f"{side}_s", values, "s"))
    rss = [r["maxrss_kb"] / 1024.0 for r in plain]
    print(_describe("peak_rss_mb", rss, "MB"))

    if args.trace:
        per_rep = [
            layer_values(r["trace"]["summary"], r["trace"]["counters"], corpus.counts)
            for r in traced
            if r["trace"]
        ]
        values = {m: statistics.median(v[m] for v in per_rep) if per_rep else 0.0 for m in PER_LAYER}
        values["e2e.model_s"] = statistics.median(s["model"] for s in sides)
        values["e2e.compare_s"] = statistics.median(s["compare"] for s in sides)
        untraced_wall = statistics.median(walls)
        values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_wall
        stage_sum = sum(v for m, v in values.items() if m.startswith("pipeline.") and m.endswith(".wall_s"))
        print(
            f"trace: pipeline spans sum {stage_sum:.4f} s, untraced wall_s {untraced_wall:.4f} s, "
            f"difference {stage_sum - untraced_wall:.4f} s, overhead {values['trace.overhead_s']:.4f} s"
        )
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}
    else:
        print(_describe("setup_s", setup, "s"))
        measured = {
            "wall_s": statistics.median(walls),
            "data_s": statistics.median(s["data"] for s in sides),
            "setup_s": statistics.median(setup),
            # the highest of the repetitions: ru_maxrss of a repetition
            # comes out in one of two modes about 5% apart, seemingly at random
            "peak_rss_mb": max(rss),
        }
        metrics = {m: {"value": measured[m], "unit": unit} for m, unit in END_TO_END.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
