"""Seeded desk-scale pipeline benchmark for patchflow.

    python3 pipebench/run.py --workload deform-mixed --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --smoke

Runs one workload through the ``patchflow`` command (``cli.main``, in this
process) from the sources under ``src/`` of the checkout.  It repeats whole
rounds -- set-up (generate and write the round's own inputs), then the timed
pipeline stages -- until the round whose end is nearest to ``--seconds``
(at least two rounds).  Every round draws new inputs, except the last, which
repeats the inputs of the first: the two must write identical checkpoints.
Then it runs ``analyze`` once, untimed, and checks the last round's outputs
against computations made apart from the program.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics from the
span recorder with ``--trace 1``).  An operation is one ``patchflow`` command
or one output check.

``--smoke`` runs every workload at tiny sizes, untraced and traced, with all
checks, each in its own process.
"""

from __future__ import annotations

import os
import sys
import time

T_PROCESS = time.perf_counter()

# one BLAS thread; must be set before numpy is imported
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


class CommandFailed(Exception):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0, help="time budget for whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("desk", "smoke"), default="desk")
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def run_round(wl, invoke, index: int) -> dict:
    """Set up and run round ``index`` on its own inputs; returns stage times and metrics."""
    wl.round = index
    if wl.work.exists():
        shutil.rmtree(wl.work)
    wl.work.mkdir(parents=True)
    t0 = time.perf_counter()
    wl.write_config()
    for argv in wl.setup_commands():
        invoke("setup:" + argv[0], argv)
    wl.prepare()
    setup = time.perf_counter() - t0
    times = {}
    for stage in wl.stages():
        t = time.perf_counter()
        invoke(stage.name, stage.argv)
        times[stage.name] = time.perf_counter() - t
    return {
        "index": index,
        "setup_s": setup,
        "stage_s": times,
        "metrics": wl.round_metrics(times),
        "final_loss": wl.final_loss(),
        "checkpoint_sha256": hashlib.sha256(wl.ckpt.read_bytes()).hexdigest(),
    }


def run_workload(args) -> int:
    if not (SRC / "patchflow" / "cli.py").is_file():
        print(f"pipebench: no patchflow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import patchflow
    from patchflow import cli

    if Path(patchflow.__file__).resolve().parent != (SRC / "patchflow").resolve():
        print(f"pipebench: imported patchflow from {patchflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_PROCESS
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    work = HERE / "work" / f"{tag}-{os.getpid()}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.scale, work)
    recorder = SpanRecorder() if args.trace else None

    done = 0  # commands completed in the current round

    def invoke(name, argv):
        nonlocal done
        main = cli.main if recorder is None else recorder.span("bench." + name, cli.main)
        code = main(argv)
        if code != 0:
            raise CommandFailed(f"patchflow {' '.join(argv)} exited {code}")
        done += 1

    ops_per_round = len(wl.setup_commands()) + len(wl.stages())
    attempted = failed = 0
    rounds = []
    errors = []
    if recorder is not None:
        recorder.install(patchflow)
    try:
        t_run = time.perf_counter()
        last_s = 0.0  # length of the previous round
        last = False
        while not last:
            attempted += ops_per_round
            done = 0
            t_round = time.perf_counter()
            # the last round is the one that ends nearest the budget: after it,
            # another round of its length would end more than half a round late
            last = bool(rounds) and (t_round - t_run) + 1.5 * last_s > args.seconds
            try:
                rounds.append(run_round(wl, invoke, 0 if last else len(rounds)))
            except Exception as exc:  # a failed command ends the run; report, do not crash
                errors.append(f"round {len(rounds)}: {exc}")
                traceback.print_exc(file=sys.stderr)
                # the failed command and the ones after it in the round
                failed += ops_per_round - done
                break
            last_s = time.perf_counter() - t_round
        # Gabor fits vary too much with the host's speed to time steadily (README);
        # analyze runs once, untimed, for gabor_r2_mean and the r2 check
        if not errors:
            attempted += 1
            try:
                invoke("analyze", wl.analyze_command())
            except Exception as exc:
                errors.append(f"analyze: {exc}")
                traceback.print_exc(file=sys.stderr)
                failed += 1
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_results = run_checks(wl, rounds, pipeline_failed=bool(errors))
    attempted += len(check_results)
    failed += sum(not v["ok"] for v in check_results.values())

    env = environment(np)
    record = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "sizes": wl.sizes,
        "environment": env,
        "import_s": import_s,
        "rounds": rounds,
        "checks": check_results,
        "errors": errors,
    }
    values = {}
    if rounds:
        values = metrics.combine_rounds(rounds)
        values["setup_s"] = import_s + statistics.median(r["setup_s"] for r in rounds)
        values["peak_rss_mb"] = peak_rss_mb
        record["pipeline_s"] = values["pipeline_s"]
    if rounds and not errors:
        values["gabor_r2_mean"] = checks.summary_metrics(wl.analyze_dir)["r2_mean"]
    if recorder is not None:
        recorder.write(results / f"{tag}-spans.jsonl")
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
        values = {}
        if rounds and not errors:
            final_loss = statistics.median(r["final_loss"] for r in rounds)
            values = metrics.per_layer(recorder, len(rounds), final_loss)
    else:
        units = {name: spec[0] for name, spec in metrics.END_TO_END.items()}
    out_metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    record["metrics"] = out_metrics
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print("environment: " + json.dumps(env, sort_keys=True))
    print(
        f"{args.workload}: {len(rounds)} rounds, pipeline_s "
        f"{record.get('pipeline_s', float('nan')):.4f} (trace {args.trace}); "
        f"checks: " + ", ".join(f"{k}={'ok' if v['ok'] else 'FAIL'}" for k, v in check_results.items())
    )
    for err in errors + [f"{k}: {v['error']}" for k, v in check_results.items() if not v["ok"]]:
        print("error: " + err)
    result = {
        "correct": not errors and all(v["ok"] for v in check_results.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_checks(wl, rounds, pipeline_failed: bool) -> dict:
    """Run every output check once; a check that cannot run counts as failed."""
    results = {}
    for name, fn in wl.checks() + [("repeat_round", lambda: repeat_round(rounds[0], rounds[-1]))]:
        if pipeline_failed:
            results[name] = {"ok": False, "error": "not run: the pipeline failed"}
            continue
        t = time.perf_counter()
        try:
            results[name] = {"ok": True, **fn(), "seconds": time.perf_counter() - t}
        except checks.CheckFailed as exc:
            results[name] = {"ok": False, "error": str(exc)}
        except Exception as exc:  # a crashing check is a failed check
            results[name] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            traceback.print_exc(file=sys.stderr)
    return results


def repeat_round(first, last) -> dict:
    """Quality outputs repeat bit for bit on the same inputs: the last round
    runs the same commands on the first round's input draw."""
    for name, value in (
        ("checkpoint", lambda r: r["checkpoint_sha256"]),
        ("final_loss", lambda r: r["final_loss"]),
        ("epe_px", lambda r: r["metrics"]["epe_px"]),
    ):
        if value(first) != value(last):
            raise checks.CheckFailed(
                f"{name} differs on the same inputs: {value(first)!r} in the first round, {value(last)!r} in the last"
            )
    return {"checkpoint_sha256": last["checkpoint_sha256"], "epe_px": last["metrics"]["epe_px"]}


def smoke() -> int:
    """Every workload at smoke scale, untraced and traced, each in its own process."""
    expected = {
        trace: {name: spec[0] for name, spec in table.items()}
        for trace, table in enumerate((metrics.END_TO_END, metrics.PER_LAYER))
    }
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        if declared != expected or sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            print("smoke: BENCHMARK.json does not match the benchmark's metrics and workloads")
            return 1
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--scale", "smoke"],
                capture_output=True,
                text=True,
                timeout=170,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            units = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            good = (
                proc.returncode == 0
                and result.get("correct") is True
                and result.get("failed") == 0
                and units == expected[trace]
            )
            ok &= good
            print(f"{name:18s} trace {trace}: {'ok' if good else 'FAIL'} ({time.perf_counter() - t:.1f} s)")
            if not good:
                print(proc.stdout[-2000:] + proc.stderr[-4000:])
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return smoke() if args.smoke else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
