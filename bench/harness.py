"""Rounds, timing and the result line shared by the three workloads.

A workload is a fixed list of jobs.  A round runs every job once, in list
order, and times each call; the answers are checked after the round ends,
outside every timed interval.  Rounds repeat until the run's seconds are
used up, and the last round always completes, so every run attempts whole
rounds and the share of failed operations is the same in every run.
"""

import gc
import json
import statistics
import sys
import time
import traceback


class Job:
    """One question: ``run()`` asks the program, ``check(answer)`` judges the answer.

    A ``probe`` is a job whose wrong outcome is a known fault of the
    program: it counts as a failed operation, not as a wrong answer.
    """

    __slots__ = ("name", "run", "check", "probe")

    def __init__(self, name, run, check, probe=False):
        self.name = name
        self.run = run
        self.check = check
        self.probe = probe


class Tally:
    """What a run measured: round times, job times by name, and the outcome counts."""

    def __init__(self):
        self.round_times = []
        self.job_times = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = []

    def note(self, text):
        if len(self.notes) < 5:
            self.notes.append(text)

    def all_job_times(self):
        return [t for ts in self.job_times.values() for t in ts]


def run_rounds(jobs, seconds, before_round=None, after_round=None):
    """Run whole rounds of ``jobs`` until ``seconds`` have passed; returns a Tally."""
    tally = Tally()
    for job in jobs:
        tally.job_times.setdefault(job.name, [])
    start = time.perf_counter()
    while True:
        gc.collect()
        if before_round:
            before_round()
        answers = []
        round_start = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            try:
                answers.append((job.run(), None))
            except Exception as exc:  # a crash is a failed operation, reported below
                answers.append((None, exc))
            tally.job_times[job.name].append(time.perf_counter() - t0)
        tally.round_times.append(time.perf_counter() - round_start)
        if after_round:
            after_round()
        for job, (answer, exc) in zip(jobs, answers):
            tally.attempted += 1
            if exc is not None:
                tally.failed += 1
                tally.note(f"{job.name}: raised\n" + "".join(traceback.format_exception(exc)))
            elif not judge(job, answer):
                if job.probe:
                    tally.failed += 1
                else:
                    tally.wrong += 1
                    tally.note(f"{job.name}: wrong answer {answer!r}"[:2000])
        if time.perf_counter() - start >= seconds:
            return tally


def judge(job, answer):
    """The job's check; a check that cannot read the answer rejects it."""
    try:
        return job.check(answer)
    except (KeyError, TypeError, ValueError, IndexError):
        return False


def median(values):
    return statistics.median(values) if values else 0.0


def emit(correct, attempted, failed, metrics):
    """Print the result line: the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    sys.stdout.flush()
