"""protograph benchmark: one workload, one process, one caller.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The run generates its inputs from
the seed as files (in a child process, as a separate tool would), loads them
as the CLI does, runs units of work for ``--seconds`` and checks every
output. See ``benchmarks/README.md`` for the workloads and metrics.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics. With ``--trace 1`` the run alternates traced units,
timed through call-site wrappers (``tracer.py``), with untraced ones, writes
the spans to ``.bench_work/<workload>.trace.jsonl`` and reports the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
DIGESTS_PATH = BENCH_DIR / "digests.json"
CHILD_TIMEOUT_S = 120

# Unit i of a run with seed s runs with the seed s * UNIT_STRIDE + i, so no
# two units of a run (or of runs with different seeds) repeat the same work.
UNIT_STRIDE = 1_000_000
# digests.json holds the digests of units 0..RECORDED_UNITS-1 for seeds
# 0..RECORDED_SEEDS-1; every run makes at least RECORDED_UNITS units.
RECORDED_SEEDS = 100
RECORDED_UNITS = 24

# BLAS threads are pinned in this process (and the children it starts) before
# numpy is imported, so one caller means one busy core.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# One calibration slice (see ``calibrate``) of the workload's kind follows
# every timed unit. CAL_REF_S is its CPU time in the common state of the
# machine the benchmark was sized on (2-vCPU Intel Xeon VM, numpy 2.4.6):
# timings are reported at that speed.
CAL_REPS = {"small": 1700, "large": 200}
CAL_REF_S = {"small": 0.067, "large": 0.078}

END_TO_END = {
    "episodes_per_s": "episodes/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "success_rate": "fraction",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must not be negative")
    return args


def import_program():
    """Pin the BLAS threads, then import numpy and the workloads (which
    import protograph from ``src/``). Returns ``(numpy, workloads)``."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    return np, workloads


def unit_seed(seed: int, index: int) -> int:
    return seed * UNIT_STRIDE + index


def digests(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def unit_digest(files: dict[str, str]) -> str:
    """One short digest over a unit's output files, as digests.json stores it."""
    joined = "".join(f"{name} {files[name]}\n" for name in sorted(files))
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(argv: list[str], log: Path) -> tuple[int, int]:
    """Run ``argv`` to its end with its output in ``log``; returns its exit
    code and its own peak resident memory in KiB (``ru_maxrss`` of that one
    child, which ``RUSAGE_CHILDREN`` would mix with every other child's)."""
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss
            if time.monotonic() > deadline:
                raise TimeoutError(f"{argv} still running after {CHILD_TIMEOUT_S} s")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas(np) -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info['name']} {info['version']}"


def platform_key(np) -> str:
    """Outputs are byte-identical only on the same numpy, BLAS and CPU."""
    return f"numpy {np.__version__} | {blas(np)} | {cpu_model()}"


def read_digest_table() -> dict:
    if not DIGESTS_PATH.is_file():
        return {}
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def environment(np, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(np),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_hash": git_hash(),
        "src_sha256": src_digest(),
    }


def cpu_clock() -> float:
    """CPU seconds (user and system) of this process.

    Units and set-ups are timed on this clock, not the wall clock: the run
    is one thread, so the two agree on a dedicated machine, but on a shared
    virtual machine the wall clock also counts the time the hypervisor gives
    the core to other tenants (steal), which came and went by up to a quarter
    of the time while this benchmark was sized.
    """
    return time.process_time()


def calibrate(np, kind: str) -> float:
    """Run one calibration slice of ``kind`` and return its CPU seconds.

    A slice is fixed work of one of the two kinds the program does:
    ``small`` operations under the interpreter (a Philox generator, a small
    draw, a matrix product and a softmax), as on the README shapes, or
    products and softmaxes of ``large`` arrays, as in the drift of
    ``eval-20w5s-wide``. The two slow down differently when the machine is
    contended, so each workload uses the kind that matches its own work. A
    slice calls no program code, so no change to ``src/`` changes its cost:
    only the machine's speed at that moment does.
    """
    w = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)
    big_x = np.linspace(-1.0, 1.0, 400 * 64).reshape(400, 64)
    big_w = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    start = cpu_clock()
    if kind == "small":
        for key in range(CAL_REPS[kind]):
            x = np.random.Generator(np.random.Philox(key=key)).standard_normal((10, 16)) @ w
            p = np.exp(x - x.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
    else:
        for _ in range(CAL_REPS[kind]):
            y = big_x @ big_w
            p = np.exp(y - y.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p.T @ big_x
    return cpu_clock() - start


def normalized(pairs: list[tuple[float, float]], ref: float) -> float:
    """Median of the times ``t`` of ``(t, calibration)`` pairs, each scaled
    to the reference machine speed: ``t * ref / calibration``, where
    ``ref`` is the calibration's time at that speed.

    A core's speed on a shared host swings by a third within seconds and
    shifts by up to half for minutes at a time, which moved the raw
    ``train-5w1s`` rate by 37% (quartile distance over median) across ten
    runs. A calibration slice run right after the timed work slows with
    it. Over four-minute recordings, across 25-second windows, the scaled
    median ranged over 5.1% on ``eval-5w1s`` (small slices) and 8.3% on
    ``eval-20w5s-wide`` (large slices), where the raw 90th percentile
    ranged over 15.8% and 14.8%.
    """
    return statistics.median(t * ref / cal for t, cal in pairs)


class Run:
    """One run of a workload with a seed: its files, operations and checks.

    Every unit's outputs are compared with the digest recorded for its index
    in ``digests.json`` (null where the unit raised when it was recorded).
    Where nothing is recorded for this seed and platform, :meth:`check_repeat`
    reruns the first timed unit at the end instead.
    """

    def __init__(self, np, wl, workload: str, seed: int):
        self.np, self.wl, self.workload, self.seed = np, wl, workload, seed
        self.spec = wl.WORKLOADS[workload]
        self.work = WORK_ROOT / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.files = wl.input_files(self.work / "inputs")
        self.out = self.work / "units"
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, str] = {}
        self.digests: dict[int, str] = {}
        self.first_outputs: dict[str, str] = {}
        self.inputs = None
        key = platform_key(np)
        self.recorded = read_digest_table().get(key, {}).get(workload, {}).get(str(seed))
        if self.recorded is None:
            self.checks["recorded_digests"] = f"none recorded for seed {seed} on {key}"
            print(f"note: {self.checks['recorded_digests']}", file=sys.stderr)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def prepare(self) -> None:
        (self.work / "inputs").mkdir(parents=True)
        self.out.mkdir()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "workloads.py"), self.workload,
             str(self.seed), str(self.work / "inputs")],
            env=child_env(), check=True, timeout=CHILD_TIMEOUT_S,
        )

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self) -> float:
        """Load the inputs afresh for the units that follow; returns the
        seconds it took. The previous inputs are freed first, so memory
        holds one set of inputs, as in a CLI process."""
        self.inputs = None
        start = cpu_clock()
        self.inputs = self.wl.load_inputs(self.spec, self.files)
        return cpu_clock() - start

    def unit(self, index: int) -> tuple[float, float, float | None]:
        """Run and check unit ``index``; returns (CPU seconds, wall seconds,
        accuracy or None)."""
        self.attempted += 1
        start, wall_start = cpu_clock(), time.perf_counter()
        try:
            accuracy = self.wl.run_unit(self.spec, self.inputs, unit_seed(self.seed, index),
                                        self.out, self.spec.unit_episodes)
        except Exception:  # a unit that raised is a failed operation; keep measuring
            traceback.print_exc()
            self.fail(f"unit {index} raised")
            return cpu_clock() - start, time.perf_counter() - wall_start, None
        took, wall = cpu_clock() - start, time.perf_counter() - wall_start
        files = digests(self.out, self.wl.output_names(self.spec))
        if index == 0:
            self.first_outputs = files
        got = self.digests[index] = unit_digest(files)
        if self.recorded is not None and index < len(self.recorded) and self.recorded[index]:
            if got != self.recorded[index]:
                self.fail(f"unit {index} outputs {got} differ from recorded {self.recorded[index]}")
        return took, wall, accuracy

    def check_repeat(self, index: int) -> None:
        """Rerun unit ``index`` untraced; it must write the same bytes again."""
        first = self.digests.pop(index, None)
        self.unit(index)
        again = self.digests.get(index)
        if first is None or again != first:
            self.checks["repeat"] = "mismatch"
            self.fail(f"unit {index} rerun wrote {again}, first run {first}")
        else:
            self.checks["repeat"] = "identical"

    def check_recorded(self) -> None:
        if self.recorded is None:
            return
        checked = [i for i in self.digests if i < len(self.recorded) and self.recorded[i]]
        bad = sum(self.digests[i] != self.recorded[i] for i in checked)
        self.checks["recorded_digests"] = f"{len(checked) - bad} of {len(checked)} units match"

    def timed(self, seconds: float, setups: int):
        """Units 1, 2, ... until ``seconds`` of wall time have passed and
        every recorded unit has run, each followed by a calibration slice.
        ``setups`` set-ups are spread evenly over the phase, so that they
        sample the same machine states as the units: those due run just
        before the next unit and share its calibration slice. Returns the
        unit accuracies and the ``(CPU seconds, calibration seconds)`` pairs
        of the units and of the set-ups."""
        accuracies, units, setup_pairs = [], [], []
        start = time.perf_counter()
        index = 1
        while index < RECORDED_UNITS or time.perf_counter() < start + seconds:
            due = min(setups, math.ceil(setups * (time.perf_counter() - start) / seconds))
            setup_times = [self.setup() for _ in range(due - len(setup_pairs))]
            took, _, accuracy = self.unit(index)
            cal = calibrate(self.np, self.spec.calibration)
            units.append((took, cal))
            setup_pairs += [(setup, cal) for setup in setup_times]
            accuracies.append(accuracy)
            index += 1
        while len(setup_pairs) < setups:
            setup_pairs.append((self.setup(), calibrate(self.np, self.spec.calibration)))
        return accuracies, units, setup_pairs

    def check_cli(self) -> float:
        """Run the CLI on the run's files at ``cli_episodes`` episodes; it must
        write the same bytes as the library path. Returns the CLI process's
        peak resident memory in MB (0 when it could not run)."""
        self.attempted += 1
        try:
            return self._check_cli()
        except Exception:  # a check that cannot run is a failed operation
            traceback.print_exc()
            self.checks["cli"] = "error"
            self.fail("CLI cross-check raised")
            return 0.0

    def _check_cli(self) -> float:
        spec, seed = self.spec, unit_seed(self.seed, 0)
        cli_out, lib_out = self.work / "cli", self.work / "lib"
        cli_out.mkdir()
        lib_out.mkdir()
        code, peak_kib = run_child(
            self.wl.cli_argv(spec, self.files, seed, spec.cli_episodes, cli_out),
            self.work / "cli.log",
        )
        if code != 0:
            self.checks["cli"] = f"exit {code}"
            self.fail(f"CLI exited {code}: {(self.work / 'cli.log').read_text().strip()}")
            return peak_kib / 1024.0
        names = self.wl.output_names(spec)
        echo = None
        if spec.kind == "train":
            # the CLI's checkpoint echoes its options; give the library the same echo
            _, echo = self.wl.trainer.read_checkpoint(cli_out / "model.ckpt")
        self.wl.run_unit(spec, self.inputs, seed, lib_out, spec.cli_episodes, config_echo=echo)
        expected = digests(lib_out, names)
        if spec.kind == "train" and expected["train_log.csv"] != self.first_outputs.get(
                "train_log.csv"):
            self.fail("training log changed with the config echo")
        got = digests(cli_out, names)
        if got != expected:
            self.checks["cli"] = "mismatch"
            self.fail(f"CLI outputs {got} differ from the library's {expected}")
        else:
            self.checks["cli"] = "identical"
        return peak_kib / 1024.0


def end_to_end(run: Run, seconds: float) -> dict:
    run.setup()
    _, _, accuracy = run.unit(0)  # warm-up
    calibrate(run.np, run.spec.calibration)
    accuracies, units, setups = run.timed(seconds, run.spec.setup_reps)
    if run.recorded is None:
        run.check_repeat(1)
    run.check_recorded()
    peak_rss_mb = run.check_cli()
    # units 0..RECORDED_UNITS-1 run on every machine, so this is a
    # deterministic function of the seed
    checked = [a for a in [accuracy] + accuracies[:RECORDED_UNITS - 1] if a is not None]
    ref = CAL_REF_S[run.spec.calibration]
    run.checks["unscaled"] = {
        "episodes_per_s": run.spec.unit_episodes / statistics.median(t for t, _ in units),
        "setup_s": statistics.median(t for t, _ in setups),
        "calibration_s": statistics.median(cal for _, cal in units),
        "units": len(units),
    }
    values = {
        "episodes_per_s": run.spec.unit_episodes / normalized(units, ref),
        "setup_s": normalized(setups, ref),
        "peak_rss_mb": peak_rss_mb,
        "accuracy": statistics.fmean(checked) if checked else 0.0,
        "success_rate": 1.0 - run.failed / run.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(run: Run, seconds: float) -> dict:
    import layers
    from tracer import Tracer

    tracer = Tracer(keep_durations=layers.DURATION_NAMES)
    tracer.install()
    try:
        for _ in range(run.spec.setup_reps):
            run.setup()
    finally:
        tracer.uninstall()
    run.unit(0)  # warm-up, untraced
    # traced and untraced units alternate, so drift in machine speed cancels
    # out of the overhead ratio; traced units are checked like any other
    plain, traced, traced_wall = [], [], 0.0
    deadline = time.perf_counter() + seconds
    index = 1
    while index < RECORDED_UNITS or time.perf_counter() < deadline:
        tracer.phase, tracer.run = "timed", f"unit{index}"
        tracer.install()
        try:
            took, wall, _ = run.unit(index)
        finally:
            tracer.uninstall()
        traced.append(took)
        traced_wall += wall
        plain.append(run.unit(index + 1)[0])
        index += 2
    if run.recorded is None:
        run.check_repeat(1)  # the first traced unit, untraced this time
    run.check_recorded()
    run.check_cli()
    WORK_ROOT.mkdir(exist_ok=True)
    tracer.write_jsonl(WORK_ROOT / f"{run.workload}.trace.jsonl")
    metrics = layers.metrics(tracer, run.spec, run.files, run.out, plain, traced, traced_wall)
    for line in layers.coverage(tracer, run.spec, len(traced)):
        print(f"warning: span coverage on {run.workload}: {line}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "protograph" / "__init__.py").is_file():
        print(f"error: no protograph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    np, wl = import_program()
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(np, wl, args.workload, args.seed)
    try:
        run.prepare()
        metrics = (per_layer if args.trace else end_to_end)(run, args.seconds)
    finally:
        run.cleanup()
    print(json.dumps({"env": environment(np, args), "checks": run.checks}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
