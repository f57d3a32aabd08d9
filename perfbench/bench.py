"""The blockecho benchmark: full-path imputation time, failures and error.

Each run imputes synthetic instances in a closed loop: one process imputes
one instance at a time and starts the next only when the previous one has
returned. The timed path is what a user of the package runs,

    metrics.normalize -> mf.pretrain -> gan.train -> NormParams.inverse,

called from outside the package through each module's namespace. Inputs
come from the workload seed alone. Every output is checked (finite, right
shape, observed cells bit-exact to the normalized input) and its sha256
digest is recorded, so a pure refactor can show it is bit-exact against
its parent with ``--out`` on the parent and ``--expect`` on the change.

Every run attempts each instance of its workload's pool at least once,
whatever its length, and scores it outside the timed path on its first
attempt, so fail_rate and the quality metrics cover the same instances
and repeat exactly between runs of the same code, as do the attempted and
failed counts of the result line. Timing metrics cover every attempt of
the run.

With ``--trace 1`` the modules are wrapped by ``tracing.Tracer`` and the
run reports per-layer metrics instead; ``--all`` runs every workload
untraced and traced and prints both tables and the tracing overhead.

BENCHMARK.json lists the workloads and metrics whose regressions are
gated. small-grid is left out of it: its many tiny numpy calls make its
wall time swing by up to a third between runs under the load of other
tenants on a shared 2-vCPU machine, more than any bound allows.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("errors", "kernel", "masking", "metrics", "mf", "gan", "data")
SETUP_REPS = 25


@dataclass(frozen=True)
class Workload:
    """Instance ``i`` has kind ``SYNTHETIC_KINDS[i % 3]`` and pattern
    ``patterns[(i // 3) % len(patterns)]``; its data, mask and model seeds
    derive from (workload seed, i). Every run attempts and scores each
    instance of the pool at least once, whatever its length."""

    name: str
    m: int
    n: int
    patterns: tuple
    rate: float
    config: dict            # BlockEchoConfig fields besides the seed
    pool: int               # distinct instances generated at set-up
    blocks: int = 0         # k of the multiblock pattern
    adv_only: bool = False  # also score the alpha=0 ablation


# Why each workload was chosen is in BENCHMARK.json; small-grid, which it
# does not list, is 48x16 over 3 kinds x 3 gap patterns: too small for BLAS,
# so per-call overhead in gan and kernel dominates, and it is the quality
# grid against MF and GAN-only. The gan-block and mf-pretrain pools are
# about what a run of BENCHMARK.json's run_seconds attempts once.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "small-grid", 48, 16, ("scattered", "uniblock", "multiblock"), 0.3,
            dict(h=4, pretrain_iters=300, iters=400, batch_rows=48),
            pool=27, blocks=2, adv_only=True,
        ),
        Workload(
            "gan-block", 720, 64, ("multiblock",), 0.3,
            dict(pretrain_iters=200, iters=500),
            pool=14, blocks=4,
        ),
        Workload(
            "mf-pretrain", 720, 64, ("scattered",), 0.2,
            dict(iters=50),
            pool=9,
        ),
    )
}

# End-to-end metrics that BENCHMARK.json does not bound, as name -> (unit,
# meaning): they move with which instances a seed makes crash, or can read
# 0. The bounded ones take their unit from BENCHMARK.json.
UNBOUNDED = {
    "impute_s_tail": ("s", "highest percentile with >= 10 samples beyond it"),
    "cells_per_s": ("1/s", "cells of successful instances / seconds of all attempts"),
    "fail_rate": ("ratio", "failed / attempted instances"),
    "nrmse_blockecho": ("ratio", "missing-cell RMSE / std of truth, original units"),
    "nrmse_mf": ("ratio", "the same for mf.mf_impute of the pretrained factors"),
    "nrmse_adv_only": ("ratio", "the same for alpha=0 (small-grid only)"),
    "forecast_wmape": ("ratio", "kNN forecast WMAPE on the imputed matrix"),
}
QUALITY = ("nrmse_blockecho", "nrmse_mf", "nrmse_adv_only", "forecast_wmape")

# Per-layer metric -> the end-to-end metric and workload it should move.
_GAN_BLOCK = "impute_s on gan-block and small-grid"
_MF = "impute_s, cells_per_s on mf-pretrain"
MOVES = {
    "mf.pretrain_s": _MF,
    "mf.mu_step_ms": _MF,
    "mf.kl_loss_ms": _MF,
    "mf.iterations": _MF,
    "mf.converged_rate": _MF,
    "gan.train_s": _GAN_BLOCK + "; cells_per_s on gan-block",
    "gan.iter_ms": _GAN_BLOCK + "; cells_per_s on gan-block",
    "gan.self_ms_per_iter": _GAN_BLOCK,
    "gan.kl_loss_ms": _GAN_BLOCK,
    "gan.build_hint_ms": _GAN_BLOCK,
    "gan.mix_rows_ms": _GAN_BLOCK,
    "gan.final_pass_ms": _GAN_BLOCK,
    **{f"kernel.{kind}_ms.{net}": "impute_s on gan-block"
       for kind in ("forward", "backward") for net in tracing.NETS},
    **{f"kernel.adam_ms.{g}": "impute_s on gan-block" for g in tracing.ADAM_GROUPS},
    **{f"kernel.forward_calls_per_iter.{net}": "impute_s on small-grid" for net in tracing.NETS},
    "kernel.as_matrix_calls_per_iter": "impute_s on small-grid",
    "metrics.normalize_ms": "impute_s on small-grid",
    "metrics.inverse_ms": "impute_s on small-grid",
    "masking.generate_mask_ms": "setup_s",
    "data.gen_synthetic_ms": "setup_s",
}


# ---------------------------------------------------------------------------
# Set-up: import the package and generate every instance of the run.


@dataclass
class Instance:
    index: int
    kind: str
    pattern: str
    truth: np.ndarray
    xm: object              # masking.MaskedMatrix in original units
    cfg: object             # gan.BlockEchoConfig, unresolved


def import_blockecho(fresh):
    """The package modules; fresh=True drops cached ones and imports anew."""
    if fresh:
        for name in [n for n in sys.modules if n == "blockecho" or n.startswith("blockecho.")]:
            del sys.modules[name]
    return SimpleNamespace(**{n: importlib.import_module(f"blockecho.{n}") for n in MODULES})


def build_pool(mods, wl, seed):
    kinds = mods.data.SYNTHETIC_KINDS
    pool = []
    for i in range(wl.pool):
        data_seed, mask_seed, model_seed = (
            int(s) for s in np.random.SeedSequence([seed, i]).generate_state(3)
        )
        kind = kinds[i % len(kinds)]
        pattern = wl.patterns[(i // len(kinds)) % len(wl.patterns)]
        spec = mods.data.SyntheticSpec(kind, wl.m, wl.n, seed=data_seed)
        truth = mods.data.gen_synthetic(spec).values
        k = wl.blocks if pattern == "multiblock" else 0
        mspec = mods.masking.MaskSpec(pattern, wl.rate, mask_seed, k=k)
        mask = mods.masking.generate_mask(mspec, wl.m, wl.n)
        xm = mods.masking.apply_mask(truth, mask)
        cfg = mods.gan.BlockEchoConfig(seed=model_seed, **wl.config)
        pool.append(Instance(i, kind, pattern, truth, xm, cfg))
    return pool


def setup(wl, seed, start):
    """Set up SETUP_REPS times; returns (modules, pool, set-up seconds).

    The first set-up is timed from ``start``, the benchmark's own start.
    """
    times = []
    for _ in range(SETUP_REPS):
        mods = import_blockecho(True)
        pool = build_pool(mods, wl, seed)
        now = time.perf_counter()
        times.append(now - start)
        start = now
    return mods, pool, times


# ---------------------------------------------------------------------------
# One attempt of the timed path, its gate and its scores.


@dataclass
class Attempt:
    seconds: float = 0.0
    error: str | None = None    # exception type, or "gate:<reason>"
    stray: bool = False         # an exception outside BlockEchoError
    xn: np.ndarray | None = None
    params: object = None
    pre: object = None
    mf_trace: object = None
    imputed: np.ndarray | None = None   # normalized units
    out: np.ndarray | None = None       # original units


def _stage(tracer, name):
    return tracer.stage(name) if tracer is not None else nullcontext()


def _train(mods, xmn, pre, cfg, tracer):
    if tracer is None:
        return mods.gan.train(xmn, pre, cfg)[1].imputed
    tracer.begin_train(cfg.resolved(*xmn.shape))
    ok = False
    try:
        with tracer.stage("gan.train"):
            imputed = mods.gan.train(xmn, pre, cfg)[1].imputed
        ok = True
        return imputed
    finally:
        tracer.end_train(ok)


def impute(mods, inst, tracer=None):
    """The timed path on one instance. Exceptions are recorded, not raised."""
    a = Attempt()
    t0 = time.perf_counter()
    try:
        a.xn, a.params = mods.metrics.normalize(inst.xm.values, inst.xm.mask)
        xmn = mods.masking.MaskedMatrix(a.xn, inst.xm.mask)
        cfg = inst.cfg.resolved(*a.xn.shape)
        with _stage(tracer, "mf.pretrain"):
            a.pre, a.mf_trace = mods.mf.pretrain(
                xmn, cfg.h, max_iters=cfg.pretrain_iters, tol=cfg.pretrain_tol, seed=cfg.seed
            )
        a.imputed = _train(mods, xmn, a.pre, inst.cfg, tracer)
        a.out = a.params.inverse(a.imputed)
    except mods.errors.BlockEchoError as exc:
        a.error = type(exc).__name__
    except Exception as exc:  # a stray exception is a bug of the package: count it, go on
        a.error, a.stray = type(exc).__name__, True
    a.seconds = time.perf_counter() - t0
    return a


def gate(a, inst):
    """Turn a returned but wrong output into a failure."""
    if a.error is not None:
        return
    obs = inst.xm.mask > 0
    if a.imputed.shape != inst.xm.shape or a.out.shape != inst.xm.shape:
        a.error = "gate:shape"
    elif not (np.isfinite(a.imputed).all() and np.isfinite(a.out).all()):
        a.error = "gate:nonfinite"
    elif not np.array_equal(a.imputed[obs].view(np.uint64), a.xn[obs].view(np.uint64)):
        a.error = "gate:observed"


def digest(a):
    if a.error is not None:
        return f"failed:{a.error}"
    return hashlib.sha256(np.ascontiguousarray(a.imputed).tobytes()).hexdigest()


def column_mean_fill(xm):
    """Missing cells filled with their column's observed mean (overall mean
    for a column with none), in original units."""
    obs = xm.mask > 0
    counts = obs.sum(axis=0)
    sums = np.where(obs, xm.values, 0.0).sum(axis=0)
    means = np.divide(sums, counts, out=np.full(counts.shape, sums.sum() / counts.sum()),
                      where=counts > 0)
    return np.where(obs, xm.values, means)


def score(mods, wl, inst, a, run):
    """Quality of one attempt; a failed path is scored by the column-mean fill."""
    truth, mask = inst.truth, inst.xm.mask
    spread = float(np.std(truth))
    fill = column_mean_fill(inst.xm)

    def nrmse(est):
        return float(mods.metrics.rmse_missing(est, truth, mask).standard) / spread

    best = a.out if a.error is None else fill
    report = mods.data.eval_downstream(truth, [("blockecho", best)])
    q = {"nrmse_blockecho": nrmse(best), "forecast_wmape": report["wmape"]["blockecho"]}
    if a.pre is None:
        q["nrmse_mf"] = nrmse(fill)
    else:
        est = np.where(mask > 0, a.xn, mods.mf.mf_impute(a.pre))
        q["nrmse_mf"] = nrmse(a.params.inverse(est))
    if wl.adv_only:
        q["nrmse_adv_only"] = nrmse(_adv_only(mods, inst, a, run) if a.pre is not None else fill)
    return q


def _adv_only(mods, inst, a, run):
    """The alpha=0 ablation from the attempt's pretrained factors."""
    xmn = mods.masking.MaskedMatrix(a.xn, inst.xm.mask)
    try:
        _, res = mods.gan.train(xmn, a.pre, replace(inst.cfg, alpha=0.0))
        return a.params.inverse(res.imputed)
    except mods.errors.BlockEchoError as exc:
        run.failures[f"adv_only:{type(exc).__name__}"] += 1
    except Exception as exc:  # a bug of the package, as in impute
        run.stray[f"adv_only:{type(exc).__name__}"] += 1
    return column_mean_fill(inst.xm)


# ---------------------------------------------------------------------------
# The closed loop.


@dataclass
class Run:
    indices: list = field(default_factory=list)     # instance index per attempt
    seconds: list = field(default_factory=list)     # per attempt
    succeeded: list = field(default_factory=list)   # per attempt
    digests: dict = field(default_factory=dict)     # instance index -> first digest
    mismatches: list = field(default_factory=list)  # indices whose repeat differed
    failures: Counter = field(default_factory=Counter)  # per failed instance
    stray: Counter = field(default_factory=Counter)
    quality: list = field(default_factory=list)     # per instance of the pool
    failed_instances: int = 0
    mf_traces: list = field(default_factory=list)


def warm_up(mods, inst):
    """A short untimed pass so first-call costs stay out of the timing."""
    short = replace(inst, cfg=replace(inst.cfg, pretrain_iters=20, iters=5))
    impute(mods, short)


def measure(mods, wl, pool, seconds, tracer=None):
    """Impute until `seconds` of attempts and the whole pool are done."""
    if tracer is None and tracing.wrapped_attributes(mods):
        raise RuntimeError("tracing wrappers are installed in an untraced run")
    warm_up(mods, pool[0])
    run = Run()
    i = 0
    while i < len(pool) or sum(run.seconds) < seconds:
        inst = pool[i % len(pool)]
        with tracer.recording() if tracer is not None else nullcontext():
            a = impute(mods, inst, tracer)
        gate(a, inst)
        run.indices.append(inst.index)
        run.seconds.append(a.seconds)
        run.succeeded.append(a.error is None)
        if a.mf_trace is not None:
            run.mf_traces.append(a.mf_trace)
        d = digest(a)
        if inst.index not in run.digests:
            run.digests[inst.index] = d
        elif run.digests[inst.index] != d:
            run.mismatches.append(inst.index)
        if i < len(pool):
            run.quality.append(score(mods, wl, inst, a, run))
            if a.error is not None:
                run.failed_instances += 1
                (run.stray if a.stray else run.failures)[a.error] += 1
        i += 1
    return run


def tail(samples):
    """(level, value) of the highest whole percentile that leaves at least
    ten samples above it, nearest-rank; None when that is not above p50."""
    n = len(samples)
    level = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if level <= 50:
        return None
    rank = math.ceil(level * n / 100)
    return level, sorted(samples)[rank - 1]


def end_to_end(wl, run, setup_times):
    ok = [s for s, good in zip(run.seconds, run.succeeded) if good]
    if not ok:
        raise RuntimeError("no instance was imputed; impute_s is undefined")
    out = {
        "setup_s": statistics.median(setup_times),
        "impute_s": statistics.median(ok),
        "cells_per_s": len(ok) * wl.m * wl.n / sum(run.seconds),
        "fail_rate": run.failed_instances / len(run.quality),
    }
    tl = tail(ok)
    if tl is not None:
        out["impute_s_tail"] = tl[1]
        out["impute_s_tail_level"] = tl[0]
        out["impute_s_tail_samples"] = len(ok)
    for name in QUALITY:
        values = [q[name] for q in run.quality if name in q]
        if values:
            out[name] = statistics.fmean(values)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# ---------------------------------------------------------------------------
# Provenance stamp and output.


def git_commit():
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # do not report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(trace):
    """Metric name -> unit of the per-layer (trace=1) or end-to-end metrics."""
    spec = load_spec()
    if trace:
        return {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {**{m["name"]: m["unit"] for m in spec["end_to_end"]},
            **{name: unit for name, (unit, _) in UNBOUNDED.items()}}


def run_one(args, start):
    wl = WORKLOADS[args.workload]
    mods, pool, setup_times = setup(wl, args.seed, start)
    tracer = tracing.Tracer(mods) if args.trace else None
    if tracer is None:
        run = measure(mods, wl, pool, args.seconds)
    else:
        with tracer.installed_for_run():
            with tracer.recording():
                build_pool(mods, wl, args.seed)  # times the generators
            run = measure(mods, wl, pool, args.seconds, tracer)
    e2e = end_to_end(wl, run, setup_times)
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp(args.seed),
        "end_to_end": e2e,
        "layers": tracer.layer_metrics(run.mf_traces) if tracer is not None else None,
        # Distinct instances of the pool, each attempted once at least: a
        # repeat only adds timing, so these counts repeat exactly per seed.
        "attempted": len(run.quality),
        "failed": run.failed_instances,
        "timed_attempts": len(run.seconds),
        "attempts": [[i, s, ok] for i, s, ok in zip(run.indices, run.seconds, run.succeeded)],
        "failures": dict(run.failures),
        "stray_exceptions": dict(run.stray),
        "digests": {str(k): v for k, v in sorted(run.digests.items())},
        "quality": run.quality,
        "mismatches": run.mismatches,
    }
    problems = [f"instance {i} repeated with another output" for i in run.mismatches]
    problems += [f"{k} is not finite" for k in QUALITY if k in e2e and not math.isfinite(e2e[k])]
    if args.expect:
        problems += compare(json.loads(Path(args.expect).read_text()), record)
    for p in problems:
        print(f"MISMATCH: {p}", file=sys.stderr)

    values, group = (record["layers"], "per_layer") if args.trace else (e2e, "end_to_end")
    result = {
        "correct": not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in load_spec()[group]},
    }
    print_run(record)
    print(json.dumps(record))
    print(json.dumps(result))
    if args.out:
        Path(args.out).write_text(json.dumps({"record": record, "result": result}, indent=1))
    return 0


def compare(expected, record):
    """Differences in outputs and quality from an earlier run's --out file."""
    expected = expected["record"]
    if (expected["workload"], expected["stamp"]["seed"]) != (record["workload"], record["stamp"]["seed"]):
        return ["--expect names another workload or seed"]
    problems = []
    for idx, d in record["digests"].items():
        if idx in expected["digests"] and expected["digests"][idx] != d:
            problems.append(f"instance {idx}: digest {d[:12]} != expected {expected['digests'][idx][:12]}")
    for name in ("fail_rate",) + QUALITY:
        got, want = record["end_to_end"].get(name), expected["end_to_end"].get(name)
        if got != want:
            problems.append(f"{name}: {got!r} != expected {want!r}")
    return problems


def print_run(record):
    print(f"# {record['workload']} trace={record['trace']} {json.dumps(record['stamp'])}")
    print(f"# attempted {record['attempted']} instances in {record['timed_attempts']} timed "
          f"attempts, failed {record['failed']}: "
          f"{record['failures']}; stray exceptions: {record['stray_exceptions']}")
    table = record["layers"] if record["trace"] else record["end_to_end"]
    unit_of = units(record["trace"])
    for name, value in table.items():
        print(f"#   {name:34s} {value:14.6g} {unit_of.get(name, '')}")


# ---------------------------------------------------------------------------
# --all: every workload, untraced then traced, as child processes.


def run_all(args):
    records = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            records[name, trace] = json.loads(lines[-2]), json.loads(lines[-1])

    print("stamp: " + json.dumps(records[next(iter(WORKLOADS)), 0][0]["stamp"]))
    unit_of = units(0)
    cols = list(unit_of)
    widths = [max(len(c), 10) for c in cols]
    print("\nend-to-end (untraced)")
    print(f"{'workload':12s} " + " ".join(f"{c:>{w}s}" for c, w in zip(cols, widths))
          + "  attempted failed")
    print(f"{'':12s} " + " ".join(f"{unit_of[c]:>{w}s}" for c, w in zip(cols, widths)))
    status = 0
    for name in WORKLOADS:
        rec = records[name, 0][0]
        e2e = rec["end_to_end"]
        cells = [f"{e2e[c]:{w}.5g}" if c in e2e else f"{'-':>{w}s}" for c, w in zip(cols, widths)]
        print(f"{name:12s} " + " ".join(cells) + f"  {rec['attempted']:9d} {rec['failed']:6d}")
        if "impute_s_tail" in e2e:
            print(f"{'':12s} impute_s_tail is p{e2e['impute_s_tail_level']} "
                  f"of {e2e['impute_s_tail_samples']} samples")
        if rec["failures"] or rec["stray_exceptions"]:
            print(f"{'':12s} failures {rec['failures']}, stray exceptions {rec['stray_exceptions']}")
    print("\nper-layer (traced)")
    print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{n:>12s}" for n in WORKLOADS) + "  moves")
    for metric, unit in units(1).items():
        vals = " ".join(f"{records[n, 1][0]['layers'][metric]:12.5g}" for n in WORKLOADS)
        print(f"{metric:34s} {unit:6s} {vals}  {MOVES[metric]}")
    print("\ntracing overhead (traced - untraced impute_s)")
    for name in WORKLOADS:
        plain = records[name, 0][0]["end_to_end"]["impute_s"]
        traced = records[name, 1][0]["end_to_end"]["impute_s"]
        print(f"{name:12s} {traced - plain:+.4f} s ({100 * (traced / plain - 1):+.1f} %)")
        same = set(records[name, 0][0]["digests"]) & set(records[name, 1][0]["digests"])
        differ = [i for i in same if records[name, 0][0]["digests"][i] != records[name, 1][0]["digests"][i]]
        if differ:
            print(f"MISMATCH: {name}: tracing changed the output of instances {sorted(differ)}")
            status = 1
        for trace in (0, 1):
            if not records[name, trace][1]["correct"]:
                print(f"MISMATCH: {name} trace={trace} reported correct=false")
                status = 1
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"],
                   help="seconds of attempts to time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write this run's record to a JSON file")
    p.add_argument("--expect", help="flag differences from a record written by --out")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv, start):
    args = parse_args(argv)
    if not (ROOT / "src" / "blockecho").is_dir():
        print(f"blockecho sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_one(args, start)
