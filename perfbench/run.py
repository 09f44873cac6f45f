#!/usr/bin/env python3
"""Measured training and simulator benchmark of the FA3C reproduction.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload a3c_serial --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  ``--workload all`` runs every workload in turn, each in its own
process.  ``--record`` re-records the reference values the correctness
checks compare against.  See ``perfbench/README.md``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
import typing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "perfbench", "golden.json")

WORKLOADS = ("a3c_serial", "paac_batched", "platform_sweep")
#: Set-up samples per run.  The imports are timed in this process and
#: in ``SETUP_REPS - 1`` fresh interpreters, the program is built
#: ``SETUP_REPS`` times; the set-up wall time is the sum of the two
#: medians.
SETUP_REPS = 3
#: ``--seed n`` runs input set ``n % INPUT_SEEDS``; every set has
#: recorded reference values, so every run is checked.
INPUT_SEEDS = 4

#: ``name -> unit`` of every bounded end-to-end metric, in report order.
#: Times and rates are scaled by the reference kernel timed beside the
#: work; ``ref`` is one run of that kernel.
END_TO_END = {
    "train_steps_per_ref_s": "steps/ref",
    "sim_routines_per_ref_s": "routines/ref",
    "routine_ref_p50": "ref",
    "routine_ref_p90": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Wall-clock twins, printed as comments but not bounded: on a shared
#: 2-core host they follow the host's speed swings.
WALL = {
    "train_steps_per_s": "steps/s",
    "sim_routines_per_s": "routines/s",
    "routine_ms_p50": "ms",
    "routine_ms_p90": "ms",
    "setup_wall_s": "s",
}


class Timed(typing.NamedTuple):
    chunk: typing.Any
    seconds: float
    #: Mean of the reference kernel times just before and after.
    ref_s: float
    traced: bool
    #: Wall seconds of each op in the chunk.
    ops: typing.Tuple[float, ...]


def load_golden(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def _rate_median(timed: typing.Sequence[Timed], field: str,
                 per_ref: bool) -> float:
    """Median over chunks of ``field`` per wall second, or per
    reference-kernel time when ``per_ref``."""
    from perfbench.stats import median
    return median([getattr(item.chunk, field) / item.seconds
                   * (item.ref_s if per_ref else 1.0) for item in timed])


def end_to_end(timed, setup_wall_s: float, nominal_s: float
               ) -> typing.Tuple[dict, dict, str]:
    """Bounded metrics, their wall-clock twins, and a note on the tail
    percentile."""
    from perfbench import stats
    walls = [op for item in timed for op in item.ops]
    refs = [op / item.ref_s for item in timed for op in item.ops]
    ref_p90, percentile = stats.tail(refs)
    # Set-up is too short to carry its own host-speed sample; the
    # kernel's median over the run stands in for it.
    setup_s = setup_wall_s * nominal_s / stats.median(
        [item.ref_s for item in timed])
    bounded = {
        "train_steps_per_ref_s": _rate_median(timed, "steps", True),
        "sim_routines_per_ref_s": _rate_median(timed, "routines", True),
        "routine_ref_p50": stats.median(refs),
        "routine_ref_p90": ref_p90,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    wall = {
        "train_steps_per_s": _rate_median(timed, "steps", False),
        "sim_routines_per_s": _rate_median(timed, "routines", False),
        "routine_ms_p50": 1e3 * stats.median(walls),
        "routine_ms_p90": 1e3 * stats.tail(walls)[0],
        "setup_wall_s": setup_wall_s,
    }
    note = (f"routine p90s are p{percentile:.1f} of {len(refs)} ops (at "
            f"least {stats.MIN_BEYOND} beyond it)")
    return bounded, wall, note


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_metrics(workload, tracer, timed) -> dict:
    from perfbench import layers
    from perfbench.stats import median
    traced = [item for item in timed if item.traced]
    plain = [item for item in timed if not item.traced]
    values = layers.per_layer(
        tracer.spans, workload.op_span,
        sum(item.chunk.plan_hits for item in traced),
        sum(item.chunk.plan_misses for item in traced))
    values["host.ref_kernel_s"] = median([item.ref_s for item in timed])
    values["trace.overhead_ratio"] = (_rate_median(plain, "steps", True)
                                      / _rate_median(traced, "steps",
                                                     True))
    return values


def time_import(name: str) -> float:
    """Seconds a fresh interpreter takes for the imports ``main`` times
    for workload ``name``."""
    code = ("import sys, time\n"
            f"sys.path[:0] = {[SRC, ROOT]!r}\n"
            "started = time.perf_counter()\n"
            "from perfbench.workloads import REGISTRY\n"
            f"REGISTRY[{name!r}]().load()\n"
            "print(time.perf_counter() - started)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout)


def measure(workload, seed: int, seconds: float, trace: bool,
            import_s: float) -> dict:
    """Set up, run the timed window, check, and build the result."""
    from perfbench import host, stats
    from perfbench import spans as sp
    from perfbench.workloads import OpClock

    input_seed = seed % INPUT_SEEDS
    imports = [import_s] + [time_import(workload.name)
                            for _ in range(SETUP_REPS - 1)]
    builds = []
    state = None
    for _ in range(SETUP_REPS):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = workload.build(input_seed)
        builds.append(time.perf_counter() - started)
    setup_wall_s = stats.median(imports) + stats.median(builds)

    print_ = host.fingerprint()
    print_id = host.fingerprint_id(print_)
    chain = None
    if workload.hashed:
        chain = workload.golden.get("train", {}).get(print_id, {}) \
            .get(workload.name, {}).get(str(input_seed))
    limit = workload.max_chunks if chain is None \
        else min(workload.max_chunks, len(chain))

    clock = OpClock(workload.op_span)
    hooks = sp.Patches()
    workload.hook_ops(state, clock, hooks)
    tracer = sp.Tracer() if trace else None
    timed: typing.List[Timed] = []
    deadline = time.perf_counter() + seconds
    reference = host.ReferenceKernel(workload.reference_numpy)
    reference()                                  # first-touch costs
    before = reference()
    try:
        while len(timed) < limit:
            # A traced run alternates untraced and traced chunks, so the
            # tracing overhead is measured under the same host load.
            traced = tracer is not None and len(timed) % 2 == 1
            patches = sp.Patches()
            if traced:
                workload.instrument(state, tracer, patches)
                clock.tracer = tracer
            first_op = len(clock.durations)
            started = time.perf_counter()
            try:
                chunk = workload.run_chunk(state, clock)
            except Exception:
                clock.abort()
                raise
            finally:
                elapsed = time.perf_counter() - started
                clock.tracer = None
                patches.undo()
            after = reference()
            timed.append(Timed(chunk, elapsed, (before + after) / 2,
                               traced, tuple(clock.durations[first_op:])))
            before = after
            if time.perf_counter() >= deadline and \
                    (tracer is None or len(timed) >= 2):
                break
    except Exception:  # the run is reported as failed, not lost
        traceback.print_exc()
        clock.outcome.aborted = True
    finally:
        hooks.undo()

    outcome = clock.outcome
    notes = [f"workload {workload.name}, seed {seed} (input set "
             f"{input_seed}), {len(timed)} chunks in "
             f"{sum(item.seconds for item in timed):.2f} s, trace "
             f"{int(trace)}",
             f"host {print_id} {json.dumps(print_, sort_keys=True)}"]
    if workload.hashed and not outcome.aborted:
        final = workload.final_hash(state)
        if chain is None:
            notes.append(f"UNVERIFIED: no parameter hashes recorded for "
                         f"host {print_id}; final hash {final} (see "
                         f"--record)")
        else:
            expected = chain[len(timed) - 1]
            outcome.final_ok = final == expected
            notes.append(f"parameter hash after chunk {len(timed)}: "
                         f"{final}, recorded {expected}: "
                         f"{'ok' if outcome.final_ok else 'MISMATCH'}")

    metrics: dict = {}
    units: dict = {}
    if outcome.attempted and not outcome.aborted:
        if trace:
            from perfbench import layers
            try:
                values = traced_metrics(workload, tracer, timed)
            except sp.TraceError as error:
                notes.append(f"TRACE CHECK FAILED: {error}")
                outcome.final_ok = False
                values = {}
            units = {name: unit for name, (unit, _) in
                     layers.METRICS.items()}
        else:
            values, wall, note = end_to_end(timed, setup_wall_s,
                                            reference.nominal_s)
            notes.append(note)
            notes.extend(f"wall clock, not bounded: {name} "
                         f"{value:.6g} {WALL[name]}"
                         for name, value in wall.items())
            units = END_TO_END
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items() if name in values}
    return {"notes": notes,
            "result": {"correct": outcome.correct,
                       "attempted": outcome.attempted,
                       "failed": outcome.reported_failed,
                       "metrics": metrics}}


def record(workload, path: str) -> None:
    """Re-record the reference values ``workload`` is checked against."""
    from perfbench import host
    entries = workload.record(INPUT_SEEDS)
    # Re-read just before writing, so two workloads recorded at once
    # keep each other's values.
    golden = load_golden(path)
    if workload.hashed:
        print_ = host.fingerprint()
        entry = golden.setdefault("train", {}).setdefault(
            host.fingerprint_id(print_), {})
        entry["fingerprint"] = print_
        entry[workload.name] = entries
    else:
        golden["sim"] = entries
    with open(path, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {workload.name} into {path}")


def run_all(args) -> int:
    """Every workload in its own process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--golden", args.golden]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode} without a result",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=GOLDEN,
                        help="reference values to check against "
                             "(default: perfbench/golden.json)")
    parser.add_argument("--record", action="store_true",
                        help="re-record the reference values of "
                             "--workload into --golden, then exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing (run from "
              f"the root of a checkout)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    from perfbench.workloads import REGISTRY
    workload = REGISTRY[args.workload](load_golden(args.golden))
    workload.load()
    import_s = time.perf_counter() - started
    if args.record:
        record(workload, args.golden)
        return 0
    report = measure(workload, args.seed, args.seconds, bool(args.trace),
                     import_s)
    for note in report["notes"]:
        print(f"# {note}")
    for name, entry in report["result"]["metrics"].items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    # Serial training is bit-exact only at a fixed BLAS thread count, so
    # the pools are pinned before numpy is first imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    # Import the benchmark as the ``perfbench`` package, not its files
    # as top-level modules.
    sys.path[0] = ROOT
    sys.exit(main())
