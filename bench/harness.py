"""Jobs, passes and output checks shared by the benchmark workloads.

A job is one call into a public rmcodes function, such as one CLI command
through rmcodes.cli.main.  A pass runs a workload's job list once, in
order, one job in flight.  Each job's result is turned into canonical text,
hashed, and compared with the digest pinned for the pinned seed; on every
seed it is also checked by an independent route.  Both happen after the
pass, outside the timed interval.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DIGESTS = Path(__file__).resolve().parent / "digests.json"
PINNED_SEED = 0


@dataclass(frozen=True)
class Job:
    """run(done) computes the result; done maps earlier job names to results.

    canon(result) is the canonical text that is hashed; check(result, done)
    is the independent check that must hold on any seed.
    """

    name: str
    run: Callable[[dict], object]
    canon: Callable[[object], str]
    check: Callable[[object, dict], bool]


@dataclass
class PassRecord:
    wall_s: float
    times_s: list[float]
    results: dict[str, object]
    errors: dict[str, str]
    jobs: list[Job]


def run_pass(jobs: list[Job]) -> PassRecord:
    """Run the jobs back to back; a job that raises counts as failed.

    A full collection first makes every pass start from the same heap state.
    """
    gc.collect()
    done: dict[str, object] = {}
    errors: dict[str, str] = {}
    times = []
    perf = time.perf_counter
    start = perf()
    for job in jobs:
        t0 = perf()
        try:
            done[job.name] = job.run(done)
        except Exception as exc:  # a failing job is recorded, the pass goes on
            errors[job.name] = f"raised {type(exc).__name__}: {exc}"
        times.append(perf() - t0)
    return PassRecord(perf() - start, times, done, errors, jobs)


def interleave(units: list[list[Job]]) -> list[Job]:
    """Merge job sequences in a fixed random order that keeps each sequence's
    own order.

    Spreading every kind of job over the whole pass makes each latency
    percentile sample the machine over the pass, not over one stretch of it.
    The order depends only on the sequence lengths, not on the seed.
    """
    slots = [i for i, unit in enumerate(units) for _ in unit]
    random.Random(0).shuffle(slots)
    its = [iter(unit) for unit in units]
    return [next(its[i]) for i in slots]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify(record: PassRecord, pinned: dict[str, str] | None) -> tuple[dict, list]:
    """Return (digests, failures) for one pass.

    A job fails if it raised, if its independent check does not hold, or,
    when pinned digests are given, if its digest differs from the pinned one.
    """
    digests = {}
    failures = []
    for job in record.jobs:
        if job.name in record.errors:
            failures.append((job.name, record.errors[job.name]))
            continue
        result = record.results[job.name]
        try:
            digests[job.name] = digest(job.canon(result))
            ok = job.check(result, record.results)
        except Exception as exc:  # a check that cannot run is a failed check
            failures.append((job.name, f"check raised {type(exc).__name__}: {exc}"))
            continue
        if not ok:
            failures.append((job.name, "independent check failed"))
        elif pinned is not None and pinned.get(job.name) != digests[job.name]:
            failures.append((job.name, "digest differs from the pinned one"))
    if pinned is not None:
        failures += [(name, "pinned job did not run")
                     for name in sorted(set(pinned) - {job.name for job in record.jobs})]
    return digests, failures


def pinned_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Pinned digests for this workload, or None when the seed is not pinned."""
    if seed != PINNED_SEED:
        return None
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return data.get(workload, {})


def write_digests(workload: str, digests: dict[str, str]) -> None:
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    data[workload] = dict(sorted(digests.items()))
    DIGESTS.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")


# canonical text of common result types -------------------------------------

def group_text(group) -> str:
    """Sorted element keys of an AutGroup."""
    return repr(sorted(f.key for f in group.elements))


def equiv_text(result) -> str:
    """Verdict plus witness key of an EquivResult."""
    witness = result.witness.key if result.witness is not None else None
    return repr((result.equivalent, witness))


def always(result, done) -> bool:
    return True
