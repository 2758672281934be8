"""Benchmark of gradix: one command, three workloads, timed in rounds.

    python3 bench/run.py --workload linalg --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports gradix from ``src/``.
Inputs come from ``--seed`` alone.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics instead.  A summary with
sample counts goes to standard error, and the full result (and, when
traced, every span) is written under ``bench/out/``.  See README.md.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("linalg", "structure", "cli")
SETUP_REPEATS = 7
CLI_SETUP_REPEATS = 15
END_TO_END = {"setup_s": "s", "round_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}
CLI_VERBS = (
    "validate", "rank", "invert", "solve", "classify", "decompose", "iso", "module",
    "category_classify", "category_to_ring", "reject",
)

sys.path.insert(0, HERE)

import harness  # noqa: E402
from tracing import Tracer, metric_names  # noqa: E402


def per_layer_names():
    names = metric_names()
    names += [("cli.python_floor_s", "s"), ("cli.import_s", "s")]
    names += [(f"cli.verb.{verb}_s", "s") for verb in CLI_VERBS]
    return names


def purge_gradix():
    for name in [n for n in sys.modules if n == "gradix" or n.startswith("gradix.")]:
        del sys.modules[name]


def check_import_source():
    origin = os.path.dirname(sys.modules["gradix"].__file__)
    if os.path.realpath(origin) != os.path.realpath(os.path.join(SRC, "gradix")):
        raise SystemExit(f"error: gradix was imported from {origin}, not from this checkout")


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_in_process(workload, args, tracer):
    """linalg and structure: set up several times (import + load), then run rounds in this process."""
    data = workload.make(args.seed)
    setup = []
    for _ in range(SETUP_REPEATS):
        purge_gradix()
        t0 = time.perf_counter()
        jobs = workload.build(data)
        setup.append(time.perf_counter() - t0)
    check_import_source()
    if tracer:
        tracer.install()
        jobs = workload.build(data)
        for job in jobs:
            job.run = tracer.job(job.name, job.run)
        tally = harness.run_rounds(jobs, args.seconds, tracer.begin_round, tracer.end_round)
    else:
        tally = harness.run_rounds(jobs, args.seconds)
    return tally, setup, peak_rss_mb(resource.RUSAGE_SELF), {}


def run_cli(workload, args, tracer):
    """cli: every job is one child process; set-up is the import of gradix.cli in a fresh process."""
    files, facts = workload.make(args.seed)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        workload.write_files(workdir, files)
        corpus = workload.broken_corpus(ROOT)
        runner = workload.Runner(ROOT)

        def path(name):
            return os.path.join(workdir, name)

        code, out, err = runner.run([sys.executable, "-c", "import gradix.cli; print(gradix.cli.__file__)"])
        if code != 0 or not os.path.realpath(out.strip()).startswith(os.path.realpath(SRC) + os.sep):
            raise SystemExit(f"error: child processes do not import gradix.cli from {SRC}: {out.strip()} {err.strip()}")
        import_cmd = [sys.executable, "-c", "import gradix.cli"]
        setup = [runner.timed(import_cmd) for _ in range(CLI_SETUP_REPEATS)]
        extra = {}
        plan = workload.round_plan(facts, corpus, path)
        jobs = workload.jobs(runner, plan)
        if tracer:
            floor = [runner.timed([sys.executable, "-c", "pass"]) for _ in range(CLI_SETUP_REPEATS)]
            extra["cli.python_floor_s"] = harness.median(floor)
            extra["cli.import_s"] = harness.median(setup) - extra["cli.python_floor_s"]
            import gradix.cli

            check_import_source()
            tracer.install()
            replays = [(tracer.job(name, gradix.cli.run), argv) for name, argv, _, _ in plan]

            def replay():
                tracer.begin_round()
                for run_cli_verb, argv in replays:
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        try:
                            run_cli_verb(argv)
                        except Exception:  # the probes' TypeError; the child-process jobs report it
                            pass
                tracer.end_round()

            tally = harness.run_rounds(jobs, args.seconds, after_round=replay)
        else:
            tally = harness.run_rounds(jobs, args.seconds)
        return tally, setup, peak_rss_mb(resource.RUSAGE_CHILDREN), extra
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gradix", "__init__.py")):
        print(f"error: no gradix sources under {SRC}; run from the root of a gradix checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = importlib.import_module(args.workload)
    tracer = Tracer() if args.trace else None
    run = run_cli if args.workload == "cli" else run_in_process
    tally, setup, rss, extra = run(workload, args, tracer)

    job_times = tally.all_job_times()
    if tracer:
        layers = tracer.report()
        for verb in CLI_VERBS:
            layers[f"cli.verb.{verb}_s"] = harness.median(tally.job_times.get(verb, []))
        layers.update(extra)
        metrics = {name: (layers.get(name, 0.0), unit) for name, unit in per_layer_names()}
    else:
        values = {
            "setup_s": harness.median(setup),
            "round_s": harness.median(tally.round_times),
            "job_p50_s": harness.median(job_times),
            "peak_rss_mb": rss,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    samples = {"setup_s": len(setup), "round_s": len(tally.round_times), "job_p50_s": len(job_times)}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "round_s": harness.median(tally.round_times),
        "job_median_s": {name: harness.median(ts) for name, ts in tally.job_times.items()},
        "wrong": tally.wrong,
        "notes": tally.notes,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(dict(summary, metrics={k: v[0] for k, v in metrics.items()}), fh, indent=1)
    if tracer:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "rounds": tracer.kept}, fh)
    for note in tally.notes:
        print(note, file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {samples['round_s']} rounds, {samples['job_p50_s']} jobs, "
        f"{samples['setup_s']} set-ups; round_s {summary['round_s']:.4f}; "
        f"{tally.attempted} attempted, {tally.failed} failed, {tally.wrong} wrong",
        file=sys.stderr,
    )
    harness.emit(tally.wrong == 0, tally.attempted, tally.failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
