"""deskllm benchmark: one workload per process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pretrain_mid --seed 1 --seconds 20 --trace 0

The run sets the workload up from the seed, runs one untimed warm-up
episode, then repeats episodes until `--seconds` have passed. Between
episodes it sets the workload up again while set-ups have taken less
than a fifth of the run, and it times the workload's fixed reference
kernel (`reference.py`). Episode and set-up times are scaled by the
reference time measured next to them (see `reference.scaled`), so that
a host that slows down for minutes moves both sides alike;
`episode_ref_s` and `setup_s` are the medians of the scaled times.
`--trace 1` instead alternates plain episodes (the phase metrics, and
the untraced side of the tracing overhead) with episodes that run with
deskllm's layers wrapped in spans; it reports the per-layer metrics and
writes the spans to `.bench_out/`.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import os
import sys

# Pinned before numpy loads so every run uses the same BLAS thread count.
# One thread keeps runs steady on a shared machine with few cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import PHASE_METRICS, layer_metrics  # noqa: E402
from reference import KERNELS, SETUP_KERNEL, reference_s, scaled  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # timed set-ups per untraced run, at least (time allowing)
SETUP_SHARE = 0.2  # beyond those, set up again while set-ups took less of the run
MIN_EPISODES = 3


def _load_package():
    """Import deskllm from this checkout's sources, never from elsewhere."""
    if not (SRC / "deskllm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no deskllm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import deskllm
    if Path(deskllm.__file__).resolve().parent != (SRC / "deskllm").resolve():
        sys.exit(f"perfbench: imported deskllm from {deskllm.__file__}, not {SRC}")
    return deskllm


def _git_commit() -> str:
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


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _git_commit()}


def attempt(fn, ops, *args):
    """fn(*args, ops), or None when it raised; a raise counts as one failure."""
    from workloads import EpisodeFailed
    try:
        return fn(*args, ops)
    except EpisodeFailed:  # Ops.call has counted it
        return None
    except Exception:
        ops.attempted += 1
        ops.failed += 1
        traceback.print_exc(file=sys.stderr)
        return None


def run_episodes(workload, state, ops, seconds: float, reference, tracer=None, setup=None):
    """(plain, traced, setups), repeating episodes until `seconds` pass.

    Each side gets at least MIN_EPISODES while time allows. With a
    tracer, plain and traced episodes alternate, so both sides see the
    same machine conditions; without one, `traced` stays empty. Each
    sample gains `ref_s`, the mean `reference()` time just before and
    just after its episode. With `setup`, a callable that sets the
    workload up and returns (set-up time, reference time right after
    it), set-ups are spread between the episodes (see SETUP_SHARE), so
    that `setups` samples the whole run rather than its first seconds.
    """
    start = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[tuple[float, float]] = []
    sinks = [plain] if tracer is None else [plain, traced]
    ref_before = reference()
    while True:
        elapsed = time.perf_counter() - start
        enough = all(len(sink) >= MIN_EPISODES for sink in sinks)
        if elapsed >= seconds and (enough or elapsed >= 3 * seconds):
            if not all(sinks):
                sys.exit("perfbench: no episode completed")
            return plain, traced, setups
        for sink in sinks:
            if sink is traced:
                tracer.install()
            try:
                sample = attempt(workload.episode, ops, state)
            finally:
                if sink is traced:
                    tracer.uninstall()
            if setup is not None and (
                    len(setups) < SETUP_REPEATS
                    or sum(t for t, _ in setups) < SETUP_SHARE * (time.perf_counter() - start)):
                setups.append(setup())
            ref_after = reference()
            if sample is not None:
                sample["ref_s"] = (ref_before + ref_after) / 2
                sink.append(sample)
            ref_before = ref_after


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def phase_metrics(samples: list[dict]) -> dict:
    """Median of each phase measure over the episodes, 0 where not run."""
    out = {}
    for name, unit, _ in PHASE_METRICS:
        key = name.removesuffix(".p50")
        values = []
        for s in samples:
            v = s.get(key)
            if v is not None:
                values.extend(v if isinstance(v, list) else [v])
        out[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_package()
    from workloads import WORKLOADS, Ops
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    reference = functools.partial(reference_s, KERNELS[args.workload])

    out_root = ROOT / ".bench_out"
    out_dir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops = Ops()
        state = workload.setup(args.seed, out_dir)  # untimed, like the warm-up

        def timed_setup():
            t0 = time.perf_counter()
            workload.setup(args.seed, out_dir)
            return time.perf_counter() - t0, reference_s(SETUP_KERNEL)
        attempt(workload.episode, ops, state)  # untimed warm-up; its checks still count

        if args.trace:
            tracer = Tracer()
            plain, traced, setups = run_episodes(workload, state, ops, args.seconds, reference,
                                                 tracer)
            stats = SpanStats(tracer.spans)
            metrics = layer_metrics(stats, tracer.counts, tracer.installed, len(traced))
            metrics.update(phase_metrics(plain))
            overhead = (statistics.median(s["episode_s"] for s in traced)
                        - statistics.median(s["episode_s"] for s in plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            tracer.dump(out_root / f"trace-{args.workload}-seed{args.seed}.json")
            samples = plain
            if tracer.missing:
                print(f"perfbench: targets absent, metrics left out: {tracer.missing}")
        else:
            samples, _, setups = run_episodes(
                workload, state, ops, args.seconds, reference,
                setup=timed_setup)
            metrics = {
                "episode_ref_s": {"value": statistics.median(scaled(s["episode_s"], s["ref_s"])
                                                             for s in samples),
                                  "unit": "s"},
                "setup_s": {"value": statistics.median(scaled(t, ref) for t, ref in setups),
                            "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
        attempt(workload.final_checks, ops, state)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    episode_times = [s["episode_s"] for s in samples]
    q1, q2, q3 = quartiles(episode_times)
    ref_times = [s["ref_s"] for s in samples]
    info = {"workload": args.workload, "seed": args.seed, "env": environment(),
            "episodes": len(episode_times), "episode_s_quartiles": [q1, q2, q3],
            "episode_s_spread": (q3 - q1) / q2, "ref_s_quartiles": list(quartiles(ref_times)),
            "setup_s_raw": [t for t, _ in setups], "setup_ref_s": [ref for _, ref in setups],
            "phases": {k: v["value"] for k, v in phase_metrics(samples).items()}}
    print("perfbench: " + json.dumps(info))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
