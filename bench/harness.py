"""Closed-loop job runner: one client, one job at a time, gated per job.

A run repeats one round of jobs.  Each job's action is the timed
call into udbound; its check runs afterwards, untimed, and returns a
``Verdict``.  A job fails on an exception, on any failure its check
reports, or when it repeats an earlier job (same key) with different
output bytes.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

KINDS = ("solve", "verify", "other")


@dataclass
class Verdict:
    """What a check found: failures, output identity and measured margins."""

    failures: list[str] = field(default_factory=list)
    identity: bytes = b""
    value_errors: list[float] = field(default_factory=list)
    residual_ratios: list[float] = field(default_factory=list)


@dataclass
class Job:
    """One call into the program.

    ``kind`` is "solve" for jobs that run the solver, "verify" for jobs
    that only check given operators, and "other" for writes and
    extraction.  ``key`` names the job's inputs: two jobs with the same key
    must produce the same output bytes.
    """

    key: str
    kind: str
    action: Callable[[], Any]
    check: Callable[[Any], Verdict]

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"job kind must be one of {KINDS}, got {self.kind!r}")


@dataclass
class Ledger:
    """Everything the gates saw over a run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    value_errors: list[float] = field(default_factory=list)
    residual_ratios: list[float] = field(default_factory=list)

    def record(self, job: Job, verdict: Verdict) -> None:
        self.attempted += 1
        failures = list(verdict.failures)
        digest = hashlib.sha256(verdict.identity).hexdigest()
        previous = self.digests.setdefault(job.key, digest)
        if previous != digest:
            failures.append("output bytes differ from an earlier run of the same job")
        if job.kind == "solve":
            self.value_errors.extend(verdict.value_errors)
        self.residual_ratios.extend(verdict.residual_ratios)
        if failures:
            self.failed += 1
            self.failures.extend(f"{job.key}: {f}" for f in failures)


def run_round(jobs: list[Job], ledger: Ledger, tracer=None) -> dict[str, float]:
    """Run jobs in order; return the time spent per kind and in total."""
    spent = dict.fromkeys(KINDS, 0.0)
    for job in jobs:
        if tracer is not None:
            tracer.job = len(tracer.job_keys)
            tracer.job_keys.append(job.key)
        start = time.perf_counter()
        try:
            result = job.action()
            error: Optional[str] = None
        except Exception:  # a crashing job is a failed job; the run goes on
            result, error = None, traceback.format_exc(limit=4)
        spent[job.kind] += time.perf_counter() - start
        if tracer is not None:
            tracer.job = -1
        if error is None:
            try:
                verdict = job.check(result)
            except Exception:
                verdict = Verdict(failures=[f"check raised: {traceback.format_exc(limit=4)}"])
        else:
            verdict = Verdict(failures=[f"raised: {error}"])
        ledger.record(job, verdict)
    spent["wall"] = sum(spent[k] for k in KINDS)
    return spent


@dataclass
class RunResult:
    ledger: Ledger
    untraced: list[dict[str, float]]
    traced: list[dict[str, float]]


def run_for(seconds: float, jobs: list[Job], tracer=None) -> RunResult:
    """Run rounds of ``jobs`` until ``seconds`` have passed, at least one.

    With a tracer, every round runs twice: untraced, then traced on the
    same inputs, so the tracing overhead is measured on equal work and
    the repeat is also an output-identity check.
    """
    ledger = Ledger()
    untraced: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(run_round(jobs, ledger))
        if tracer is not None:
            tracer.round = len(traced)
            tracer.install()
            try:
                traced.append(run_round(jobs, ledger, tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            break
    for line in ledger.failures:
        print(f"FAILED {line}", file=sys.stderr)
    return RunResult(ledger, untraced, traced)

