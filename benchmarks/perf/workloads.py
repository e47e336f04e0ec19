"""The four benchmark workloads, each run in a process of its own.

``run.py`` starts this file once per workload run::

    python workloads.py --workload cold_check --seed 0 --seconds 25 \
        --trace 0 --work DIR [--setup-only] [--trace-out FILE]

The process sets up (imports, inputs, seeding, daemon boot, warm-up),
prints ``ready`` and the median probe time of its warm-up requests,
runs a closed loop for ``--seconds`` and prints its
raw result as one JSON line: per-request latencies in completion order,
the host-speed probe (:func:`stats.probe_seconds`) each caller runs
untimed right after each request, peak RSS, failures, a digest of the
first reports and, when traced, the per-layer folds.  ``run.py`` turns
that into metrics.  With
``--setup-only`` it stops after ``ready``; ``run.py`` uses that to time
set-up several times per run.

Inputs are a pure function of ``(workload, seed)``.  Sizes and kinds are
balanced draws (each value once per block, in a seeded order) and the
generator seed of request ``i`` comes from
``Random("<workload>:<seed>:<phase>:<i>")``, so the seed changes the
inputs and never their mix of sizes.  Warm-up inputs (phase ``warm``)
are never timed.  :func:`digest` hashes the warm-up inputs, the first
:data:`DIGEST_REQUESTS` timed inputs and any fixed sources.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from random import Random
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.workloads.hierarchy import (  # noqa: E402
    HierarchyShape,
    grid_project_sources,
    lifecycle_claim,
    module_source,
    project_files,
)

import layers  # noqa: E402
import stats  # noqa: E402

#: Timed requests a run needs before it may stop (a p99 needs 1000).
MIN_SAMPLES = 1000

#: Timed inputs covered by the input digest.
DIGEST_REQUESTS = 256

#: The first timed reports, hashed into ``reports_sha256``.
REPORTS_HASHED = 10

OK_REPORT = "OK: specification verified"


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------

def report_errors(report: str) -> list[tuple[str, ...]]:
    """The error verdicts a rendered report carries, in order.

    ``Error in specification`` blocks become ``(title, subsystem
    classes...)``; uniform ``error ...`` lines become ``("error", text)``.
    Warnings are not verdicts.
    """
    errors: list[tuple[str, ...]] = []
    for block in report.split("\n\n"):
        lines = block.splitlines()
        if not lines:
            continue
        head = lines[0]
        if head.startswith("Error in specification: "):
            culprits = tuple(
                line.split()[1] for line in lines if line.startswith("  * ")
            )
            errors.append((head[len("Error in specification: "):], *culprits))
        elif head.startswith("error"):
            errors.append(("error", head))
    return errors


def expected_errors(buggy: bool, pairs: int) -> list[tuple[str, ...]]:
    """What the hierarchy generator plants: exactly one truncated
    lifecycle of ``Device<pairs-1>`` when ``buggy``, nothing otherwise."""
    if not buggy:
        return []
    return [("INVALID SUBSYSTEM USAGE", f"Device{pairs - 1}")]


def check_project_report(item: dict[str, Any], report: str) -> str | None:
    """``None`` when ``report`` is the generator's known answer."""
    got = report_errors(report)
    want = expected_errors(item["buggy"], item["pairs"])
    if got != want:
        return f"{item['id']}: expected {want}, got {got}"
    return None


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------

#: (pairs, base operations, subsystems, composite operations) of the
#: generated projects; every size appears once per len(SIZES) requests.
PROJECT_SIZES = tuple(
    itertools.product(range(2, 5), range(4, 9), range(2, 6), range(1, 4))
)
#: 70% of projects carry a lifecycle claim, 40% plant one usage bug.
CLAIM_SLOTS = (True,) * 7 + (False,) * 3
BUG_SLOTS = (True,) * 2 + (False,) * 3


def _project(
    size: tuple[int, int, int, int], claim: bool, buggy: bool, seed: int,
    stage: Path,
) -> dict[str, Any]:
    """A generated multi-file project of ``size``."""
    pairs, operations, subsystems, composites = size
    shape = HierarchyShape(
        base_operations=operations,
        subsystems=subsystems,
        composite_operations=composites,
        seed=seed,
    )
    shutil.rmtree(stage, ignore_errors=True)
    written = project_files(
        shape, pairs, stage, correct=not buggy,
        claim=lifecycle_claim(shape) if claim else None,
    )
    files = {path.name: path.read_text(encoding="utf-8") for path in written}
    shutil.rmtree(stage)
    return {"files": files, "pairs": pairs, "buggy": buggy}


class Workload:
    """One workload: its inputs, its request and its known answer."""

    name = ""
    callers = 1
    warmup = 0

    def __init__(self, seed: int, work: Path, trace: bool = False, keep: bool = False):
        self.seed = seed
        self.work = work
        #: Traced run / keep every span (only the serve daemon needs telling).
        self.trace = trace
        self.keep = keep
        self._orders: dict[tuple[str, str], tuple[int, list]] = {}

    def shape_seed(self, phase: str, index: int) -> int:
        return Random(f"{self.name}:{self.seed}:{phase}:{index}").randrange(1 << 30)

    def balanced(self, phase: str, factor: str, index: int, values: tuple) -> Any:
        """``values[...]`` for request ``index``, each value used exactly
        once per ``len(values)`` requests in a seeded order.

        Balanced draws keep the mix of sizes identical from run to run
        and seed to seed, so a run's median does not move with the luck
        of the draw.
        """
        block, slot = divmod(index, len(values))
        cached = self._orders.get((phase, factor))
        if cached is None or cached[0] != block:
            order = list(values)
            Random(f"{self.name}:{self.seed}:{phase}:{factor}:{block}").shuffle(order)
            cached = self._orders[(phase, factor)] = (block, order)
        return cached[1][slot]

    def project(self, phase: str, index: int, size=None) -> dict[str, Any]:
        """A balanced project for request ``index`` of ``phase``."""
        return _project(
            size or self.balanced(phase, "size", index, PROJECT_SIZES),
            self.balanced(phase, "claim", index, CLAIM_SLOTS),
            self.balanced(phase, "bug", index, BUG_SLOTS),
            self.shape_seed(phase, index),
            self.work / "stage",
        )

    # -- inputs ------------------------------------------------------------

    def fixed(self) -> Any:
        """Sources every request shares (hashed into the digest)."""
        return None

    def stream(self) -> Iterator[dict[str, Any]]:
        """Warm-up inputs, then timed inputs, forever."""
        index = 0
        while True:
            phase = "warm" if index < self.warmup else "timed"
            number = index if index < self.warmup else index - self.warmup
            item = self.make(phase, number)
            item["id"] = f"{phase}{number}"
            item["number"] = number
            item["timed"] = phase == "timed"
            yield item
            index += 1

    def make(self, phase: str, index: int) -> dict[str, Any]:
        raise NotImplementedError

    # -- running -----------------------------------------------------------

    def setup(self) -> None:
        """Work done before the first input (part of set-up time)."""

    def prepare(self, item: dict[str, Any]) -> Any:
        """Untimed per-request preparation; returns the request argument."""
        return item

    def request(self, arg: Any, caller: int, rec) -> Any:
        """The timed request; ``rec`` is the recorder when traced."""
        raise NotImplementedError

    def verify(self, item: dict[str, Any], outcome: Any) -> str | None:
        raise NotImplementedError

    def report(self, outcome: Any) -> str:
        return outcome

    def finish(self, item: dict[str, Any], outcome: Any, rec) -> None:
        """Untimed per-request bookkeeping after a request."""

    def warmed(self) -> None:
        """Called once the warm-up requests are done."""

    def layer_folds(
        self, rec: layers.Recorder, rids: list[str], latencies: list[float]
    ) -> dict[str, Any]:
        """Workload-specific per-layer metrics of a traced run."""
        return {}

    def teardown(self) -> None:
        """Stop what :meth:`setup` started."""

    def peak_rss_mb(self) -> float:
        """Peak RSS so far of the process doing the verification."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ColdCheck(Workload):
    """Unique multi-file projects checked cold: ``verify_path`` + render."""

    name = "cold_check"
    warmup = 30

    def make(self, phase: str, index: int) -> dict[str, Any]:
        return self.project(phase, index)

    def prepare(self, item: dict[str, Any]) -> Path:
        target = self.work / "cold" / item["id"]
        target.mkdir(parents=True)
        for name, text in item["files"].items():
            (target / name).write_text(text, encoding="utf-8")
        return target

    def setup(self) -> None:
        from repro.engine import verify_path

        self.verify_path = verify_path

    def request(self, target: Path, caller: int, rec) -> str:
        return self.verify_path(target).merged().format()

    def verify(self, item: dict[str, Any], report: str) -> str | None:
        return check_project_report(item, report)

    def finish(self, item: dict[str, Any], outcome: Any, rec) -> None:
        shutil.rmtree(self.work / "cold" / item["id"], ignore_errors=True)


#: The edit-loop grid: layers x width classes, one file each.
GRID_LAYERS = 6
GRID_WIDTH = 8

#: 75% body-only blank-line pads, 25% back-edge toggles in a G0 base.
EDIT_KINDS = ("edge", "pad", "pad", "pad")
_EDGE_OFF = "    def step1(self):\n        return ['step2']\n"
_EDGE_ON = "    def step1(self):\n        return ['step2', 'step0']\n"


class EditLoop(Workload):
    """One-file edits re-verified incrementally against a seeded state."""

    name = "edit_loop"
    warmup = 20

    def __init__(self, seed: int, work: Path, *flags: bool):
        super().__init__(seed, work, *flags)
        self.root = work / "grid"
        self.state_file = work / "state.json"
        self.cache = None
        self._edges_on: set[str] = set()

    def fixed(self) -> dict[str, str]:
        return grid_project_sources(
            HierarchyShape(base_operations=4), GRID_LAYERS, GRID_WIDTH
        )

    def make(self, phase: str, index: int) -> dict[str, Any]:
        column = self.balanced(phase, "column", index, tuple(range(GRID_WIDTH)))
        if self.balanced(phase, "kind", index, EDIT_KINDS) == "edge":
            base = f"G0_{column:03d}"
            self._edges_on ^= {base}
            return {
                "kind": "edge-on" if base in self._edges_on else "edge-off",
                "file": f"{base}.py",
                "dirty": [base, f"G1_{column:03d}"],
            }
        layer = self.balanced(phase, "layer", index, tuple(range(GRID_LAYERS)))
        name = f"G{layer}_{column:03d}"
        return {"kind": "pad", "file": f"{name}.py", "dirty": [name]}

    def setup(self) -> None:
        from repro.engine import InferenceCache, verify_incremental
        from repro.frontend import project

        # parse_project is looked up on its module at each call, where
        # the traced run wraps it.
        self.frontend = project
        self.verify_incremental = verify_incremental
        self.root.mkdir(parents=True)
        for name, text in self.fixed().items():
            (self.root / f"{name}.py").write_text(text, encoding="utf-8")
        self.cache = InferenceCache(self.work / "cache")
        module, violations = project.parse_project(self.root)
        seeded = self.verify_incremental(
            module, violations, state_file=self.state_file, cache=self.cache
        )
        if not seeded.plan.cold or seeded.batch.merged().format() != OK_REPORT:
            raise RuntimeError("seeding the edit-loop grid did not verify cold")

    def prepare(self, item: dict[str, Any]) -> None:
        path = self.root / item["file"]
        text = path.read_text(encoding="utf-8")
        if item["kind"] == "pad":
            text = "\n" + text
        else:
            old, new = (
                (_EDGE_OFF, _EDGE_ON) if item["kind"] == "edge-on"
                else (_EDGE_ON, _EDGE_OFF)
            )
            if text.count(old) != 1:
                raise RuntimeError(f"{item['file']}: edit anchor not found")
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")

    def request(self, _arg: None, caller: int, rec) -> tuple[str, list[str]]:
        module, violations = self.frontend.parse_project(self.root)
        result = self.verify_incremental(
            module, violations, state_file=self.state_file, cache=self.cache
        )
        return result.batch.merged().format(), list(result.plan.dirty)

    def verify(self, item: dict[str, Any], outcome) -> str | None:
        report, dirty = outcome
        if report != OK_REPORT:
            return f"{item['id']}: report {report[:200]!r}"
        if dirty != item["dirty"]:
            return f"{item['id']}: dirty {dirty}, expected {item['dirty']}"
        return None

    def report(self, outcome) -> str:
        return outcome[0]


HOT_PROJECTS = 20
#: 60% of jobs resubmit a hot project, 40% are fresh.
HOT_SLOTS = (True,) * 3 + (False,) * 2
#: Serve jobs are 3-file projects.
SERVE_SIZES = tuple(size for size in PROJECT_SIZES if size[0] == 3)
#: The generator's operation names (``step3``, ``run0``).
_OPERATION = re.compile(r"\b(step|run)(\d+)\b")


class ServeCI(Workload):
    """Two CI callers against a ``repro serve`` daemon over HTTP."""

    name = "serve_ci"
    callers = 2
    warmup = 60

    def __init__(self, seed: int, work: Path, *flags: bool):
        super().__init__(seed, work, *flags)
        self.daemon: Daemon | None = None
        self.hot: list[dict[str, Any]] = []
        self.shed = 0
        self.records: dict[str, dict[str, Any]] = {}
        self.fresh: set[str] = set()
        self.rss_after_warmup = 0.0
        self.rss_end = 0.0
        self.dump: dict[str, Any] | None = None

    def fixed(self) -> list[dict[str, Any]]:
        if not self.hot:
            self.hot = [
                self.project("hot", k, SERVE_SIZES[k * len(SERVE_SIZES) // HOT_PROJECTS])
                for k in range(HOT_PROJECTS)
            ]
        return self.hot

    def project(self, phase: str, index: int, size=None) -> dict[str, Any]:
        """A project whose operations carry a tag of its own (``step3``
        becomes ``step_t17_3``).  The verdicts stay the same, but no
        method body matches one of another project, so a fresh job
        misses the method cache as well as the class cache."""
        project = super().project(phase, index, size)
        project["files"] = {
            name: _OPERATION.sub(rf"\1_{phase[0]}{index}_\2", text)
            for name, text in project["files"].items()
        }
        return project

    def make(self, phase: str, index: int) -> dict[str, Any]:
        hot = self.fixed()
        if phase == "warm" and index < HOT_PROJECTS:
            return dict(hot[index], hot=index)  # cache every hot project first
        if self.balanced(phase, "hot", index, HOT_SLOTS):
            k = self.balanced(phase, "which", index, tuple(range(HOT_PROJECTS)))
            return dict(hot[k], hot=k)
        size = self.balanced(phase, "size", index, SERVE_SIZES)
        return dict(self.project(phase, index, size), hot=None)

    def setup(self) -> None:
        self.fixed()
        self.daemon = Daemon(
            self.work / "cache",
            self.work / "daemon-spans.json" if self.trace else None,
            self.work / "daemon.log",
            keep=self.keep,
        )

    def request(self, item: dict[str, Any], caller: int, rec) -> dict[str, Any]:
        daemon = self.daemon
        span = rec.open("serve.submit") if rec is not None else None
        try:
            status, job = daemon.call(
                "POST", "/v1/jobs", {"tenant": f"ci{caller}", "files": item["files"]}
            )
        finally:
            if span is not None:
                rec.close(span)
        if status in (429, 503):
            self.shed += 1
            raise RuntimeError(f"shed with {status}: {job}")
        if status != 202:
            raise RuntimeError(f"submit returned {status}: {job}")
        daemon.follow(job["id"])
        status, record = daemon.call("GET", f"/v1/jobs/{job['id']}")
        if status != 200:
            raise RuntimeError(f"job read returned {status}")
        return record

    def verify(self, item: dict[str, Any], record: dict[str, Any]) -> str | None:
        if record.get("state") != "done":
            return f"{item['id']}: job {record.get('id')} {record.get('state')}"
        if record.get("ok") is not (not item["buggy"]):
            return f"{item['id']}: job ok={record.get('ok')}"
        return check_project_report(item, record["report"])

    def report(self, record: dict[str, Any]) -> str:
        return record["report"]

    def finish(self, item: dict[str, Any], record: Any, rec) -> None:
        if item["timed"] and isinstance(record, dict):
            self.records[item["id"]] = record
            if item["hot"] is None:
                self.fresh.add(item["id"])

    def warmed(self) -> None:
        self.rss_after_warmup = self.daemon.status_mb("VmRSS")

    def layer_folds(
        self, rec: layers.Recorder, rids: list[str], latencies: list[float]
    ) -> dict[str, Any]:
        # A request's time splits into submit, queue wait, execution (the
        # daemon's layer spans partition it) and what is left over.
        queue, executed, overhead, unattributed = [], [], [], []
        for rid, latency in zip(rids, latencies):
            record = self.records.get(rid)
            if record is None:  # a failed request has no job record
                continue
            wait = (record["started_at"] - record["submitted_at"]) * 1000.0
            run_ms = record["seconds"] * 1000.0
            exec_span = rec.root_seconds.get((rid, "serve.exec"), 0.0) * 1000.0
            submit = rec.self_seconds.get((rid, "serve.submit"), 0.0) * 1000.0
            queue.append(wait)
            executed.append(run_ms)
            overhead.append(latency - wait - run_ms)
            unattributed.append(latency - submit - wait - exec_span)
        done = max(len(executed), 1)
        method_gets = sum(
            rec.counts.get((rid, "engine.cache.method_gets"), 0.0) for rid in self.fresh
        )
        method_hits = sum(
            rec.counts.get((rid, "engine.cache.method_hits"), 0.0) for rid in self.fresh
        )
        return {
            # Method-cache hits within fresh jobs: only the repeats inside
            # one project (its pairs share operation bodies) can hit.
            "serve.fresh.method_hit_ratio": (
                method_hits / method_gets if method_gets else 0.0
            ),
            "serve.queue_wait.ms": queue,  # a list: run.py takes percentiles
            "serve.exec.ms": sum(executed) / done,
            "serve.overhead.ms": sum(overhead) / done,
            "unattributed.ms": sum(unattributed) / done,
            "serve.shed": self.shed,
            "serve.rss_growth_mb": self.rss_end - self.rss_after_warmup,
        }

    def teardown(self) -> None:
        if self.daemon is None:
            return
        try:
            self.rss_end = self.daemon.status_mb("VmRSS")
        finally:
            self.daemon.stop()
        if self.trace:
            self.dump = json.loads(
                (self.work / "daemon-spans.json").read_text(encoding="utf-8")
            )

    def peak_rss_mb(self) -> float:
        return self.daemon.status_mb("VmHWM")


#: (base operations, subsystems, composite operations) of mined modules.
MINE_SIZES = tuple(itertools.product(range(3, 8), range(1, 4), range(1, 4)))


class MineDiff(Workload):
    """Correct single modules mined and diffed against their static model."""

    name = "mine_diff"
    warmup = 30

    def make(self, phase: str, index: int) -> dict[str, Any]:
        operations, subsystems, composites = self.balanced(
            phase, "size", index, MINE_SIZES
        )
        shape = HierarchyShape(
            base_operations=operations,
            subsystems=subsystems,
            composite_operations=composites,
            seed=self.shape_seed(phase, index),
        )
        return {
            "source": module_source(shape, correct=True),
            "collect_seed": index if phase == "timed" else 1_000_000 + index,
        }

    def setup(self) -> None:
        from repro.mine.api import mine_source
        from repro.mine.collect import CollectConfig

        self.mine_source, self.config = mine_source, CollectConfig

    def request(self, item: dict[str, Any], caller: int, rec):
        return self.mine_source(
            item["source"], config=self.config(seed=item["collect_seed"]), diff=True
        )

    def verify(self, item: dict[str, Any], report) -> str | None:
        verdicts = [result.diff.verdict for result in report.results]
        if not report.ok or set(verdicts) != {"EQUIVALENT"}:
            return f"{item['id']}: verdicts {verdicts}"
        return None

    def report(self, report) -> str:
        return report.format()

    def finish(self, item: dict[str, Any], report: Any, rec) -> None:
        if rec is not None and item["timed"] and not isinstance(report, Exception):
            section = report.metrics()["mine"]
            rec.count(item["id"], "mine.corpus_events", section["corpus_events"])
            rec.count(item["id"], "mine.mined_states", section["mined_states"])


WORKLOADS = {cls.name: cls for cls in (ColdCheck, EditLoop, ServeCI, MineDiff)}


def digest(name: str, seed: int, work: Path) -> str:
    """SHA-256 over what ``(name, seed)`` feeds the system."""
    workload = WORKLOADS[name](seed, work)
    work.mkdir(parents=True, exist_ok=True)
    hasher = hashlib.sha256()
    hasher.update(json.dumps(workload.fixed(), sort_keys=True).encode("utf-8"))
    stream = workload.stream()
    for _ in range(workload.warmup + DIGEST_REQUESTS):
        hasher.update(json.dumps(next(stream), sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# The serve daemon and its HTTP client
# ----------------------------------------------------------------------

#: Seconds the daemon has to print its URL.
DAEMON_BOOT_S = 30.0


class Daemon:
    """A ``repro serve --port 0 --workers 2`` subprocess on a fresh cache."""

    def __init__(
        self, cache_dir: Path, spans: Path | None, log: Path, keep: bool = False
    ):
        serve_args = [
            "serve", "--port", "0", "--workers", "2", "--cache-dir", str(cache_dir),
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            command = [
                sys.executable, str(HERE / "serve_launcher.py"), str(spans),
                *(["--keep-spans"] if keep else []), *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")])
        )
        self._log = open(log, "w", encoding="utf-8")
        self._drain: threading.Thread | None = None
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True, env=env
        )
        ready = ""
        if select.select([self.proc.stdout], [], [], DAEMON_BOOT_S)[0]:
            ready = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", ready)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not come up: {ready!r} (see {log})")
        self.host, self.port = match.group(1), int(match.group(2))
        # Keep reading stdout so the daemon can never block on a full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self._drain.start()

    def call(self, method: str, path: str, payload: Any = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            body = None if payload is None else json.dumps(payload).encode("utf-8")
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def follow(self, job_id: str) -> None:
        """Read the job's event stream until it reports a terminal state."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raise RuntimeError(f"event stream returned {response.status}")
            for line in response:
                if json.loads(line)["state"] in ("done", "failed"):
                    break
            response.read()
        finally:
            conn.close()

    def status_mb(self, field: str) -> float:
        text = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="ascii")
        kilobytes = re.search(rf"^{field}:\s+(\d+) kB", text, re.M).group(1)
        return int(kilobytes) / 1024.0

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=30)
        finally:
            self._log.close()
        if self._drain is not None:
            self._drain.join(timeout=30)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

class Loop:
    """Feeds ``workload.stream()`` to ``workload.callers`` closed-loop callers."""

    def __init__(self, workload: Workload, rec: layers.Recorder | None):
        self.workload = workload
        self.rec = rec
        self.stream = workload.stream()
        self.lock = threading.Lock()
        self.samples: list[dict[str, Any]] = []
        self.failures: list[str] = []
        self.reports: dict[int, str] = {}
        #: Peak RSS once the first MIN_SAMPLES timed requests are done:
        #: a run's memory grows with the work it has done, so a fixed
        #: amount of work, not a fixed time, makes the number repeat.
        self.peak_rss_mb: float | None = None
        #: Probe times after the warm-up requests, which normalise set-up.
        self.warm_probes: list[float] = []

    def _next(self) -> dict[str, Any]:
        with self.lock:
            item = next(self.stream)
            return item, self.workload.prepare(item)

    def _one(self, caller: int) -> float:
        item, arg = self._next()
        rec, workload = self.rec, self.workload
        root = rec.open("request", item["id"]) if rec is not None else None
        started = time.perf_counter()
        try:
            outcome = workload.request(arg, caller, rec)
        except Exception as error:  # noqa: BLE001 - a failed request is a result
            outcome = error
        ended = time.perf_counter()
        if root is not None:
            rec.close(root)
        probe = stats.probe_seconds()
        if isinstance(outcome, Exception):
            problem = f"{item['id']}: {type(outcome).__name__}: {outcome}"
        else:
            problem = workload.verify(item, outcome)
        with self.lock:
            workload.finish(item, outcome, rec)
            if item["timed"]:
                self.samples.append(
                    {"id": item["id"], "start": started, "end": ended, "probe": probe}
                )
                if len(self.samples) == MIN_SAMPLES:
                    self.peak_rss_mb = workload.peak_rss_mb()
                if problem is not None:
                    self.failures.append(problem)
                elif item["number"] < REPORTS_HASHED:
                    self.reports[item["number"]] = workload.report(outcome)
            elif problem is not None:
                raise RuntimeError(f"warm-up request failed: {problem}")
            else:
                self.warm_probes.append(probe)
        return ended

    def _caller(self, caller: int, count: int | None, until, errors: list) -> None:
        try:
            if count is not None:
                for _ in range(count):
                    self._one(caller)
                return
            while not until(self._one(caller)):
                pass
        except Exception as error:  # noqa: BLE001 - re-raised by run()
            errors.append(error)

    def run(self, count: int | None = None, seconds: float | None = None) -> None:
        """``count`` requests per caller, or for ``seconds``.

        A timed run goes on past ``seconds`` (up to three times as long)
        until it has :data:`MIN_SAMPLES` requests, the fewest a p99
        stands on, so a host that stalls the run does not void it.
        """
        errors: list[Exception] = []
        until = None
        if seconds is not None:
            started = time.perf_counter()

            def until(now: float) -> bool:
                elapsed = now - started
                return elapsed >= seconds and (
                    len(self.samples) >= MIN_SAMPLES or elapsed >= 3 * seconds
                )

        threads = [
            threading.Thread(target=self._caller, args=(caller, count, until, errors))
            for caller in range(1, self.workload.callers)
        ]
        for thread in threads:
            thread.start()
        self._caller(0, count, until, errors)
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]


def _layer_folds(
    workload: Workload, rec: layers.Recorder, samples: list[dict[str, Any]]
) -> dict[str, float]:
    """Per-request means of every fold, plus the ratios and totals."""
    timed = [sample["id"] for sample in samples]
    if isinstance(workload, ServeCI):
        # Daemon request ids are job ids; map the timed ones to ours.
        by_job = {record["id"]: rid for rid, record in workload.records.items()}
        rec.absorb(workload.dump, lambda job_id: by_job.get(job_id))
    count = len(samples)
    timed_ids = set(timed)
    totals: dict[str, float] = {}
    for (rid, name), seconds in rec.self_seconds.items():
        if rid in timed_ids:
            totals[f"{name}.ms"] = totals.get(f"{name}.ms", 0.0) + seconds * 1000.0
    for (rid, name), value in rec.counts.items():
        if rid in timed_ids:
            totals[name] = totals.get(name, 0.0) + value
    folds = {name: value / count for name, value in totals.items()}
    gets = totals.get("engine.cache.gets", 0.0)
    folds["engine.cache.hit_ratio"] = (
        totals.get("engine.cache.hits", 0.0) / gets if gets else 0.0
    )
    folds["engine.retries"] = totals.get("engine.retries", 0.0)
    latencies = [(s["end"] - s["start"]) * 1000.0 for s in samples]
    folds["latency_mean_ms"] = sum(latencies) / count
    folds["unattributed.ms"] = folds.pop("request.ms", 0.0)
    folds.update(workload.layer_folds(rec, timed, latencies))
    return folds


def run_child(args: argparse.Namespace) -> dict[str, Any] | None:
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    rec = layers.Recorder(keep=bool(args.trace_out)) if args.trace else None
    if rec is not None:
        layers.install(rec)
    workload = WORKLOADS[args.workload](
        args.seed, work, bool(args.trace), bool(args.trace_out)
    )
    try:
        workload.setup()
        loop = Loop(workload, rec)
        loop.run(count=workload.warmup // workload.callers)
        workload.warmed()
        print(f"ready {statistics.median(loop.warm_probes)!r}", flush=True)
        if args.setup_only:
            return None
        loop.run(seconds=args.seconds)
        peak_rss_mb = loop.peak_rss_mb or workload.peak_rss_mb()
    finally:
        workload.teardown()
    samples = sorted(loop.samples, key=lambda sample: sample["end"])
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "callers": workload.callers,
        "samples": len(samples),
        # In completion order, one entry per timed request.
        "latencies_s": [s["end"] - s["start"] for s in samples],
        "probes_s": [s["probe"] for s in samples],
        "peak_rss_mb": peak_rss_mb,
        "failed": len(loop.failures),
        "failures": loop.failures[:5],
        "reports_sha256": hashlib.sha256(
            "\n\x00".join(
                loop.reports[number] for number in sorted(loop.reports)
            ).encode("utf-8")
        ).hexdigest(),
    }
    if rec is not None:
        result["layers"] = _layer_folds(workload, rec, samples)
        if args.trace_out:
            rec.write_jsonl(args.trace_out)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    result = run_child(args)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
