"""Deterministic fault injection for exercising the engine's recovery paths.

Every recovery feature of :func:`repro.engine.run_sweep` — per-point
timeouts, retries with backoff, pool rebuilds after worker death, degraded
serial execution — is tested against *real* child-process failures, not
mocks.  This module is the switchboard: a :class:`FaultPlan` installed in
the ``REPRO_FAULTS`` environment variable (read by the engine when it
submits each point and sent along to the worker, which may have been
forked before the plan was installed) makes :func:`apply_fault` fire a
chosen failure on the first N executions of matching points:

``crash``
    ``os._exit`` — the worker dies without cleanup, the pool breaks.
``hang``
    sleep for ``hang_s`` — exercises the per-point wall-clock timeout.
``raise``
    raise :class:`FaultInjected` — a transient in-process flake.
``corrupt``
    return nonsense metrics instead of running the experiment.
``delay``
    sleep for ``delay_s``, then run the point normally — a slow worker
    rather than a dead one.  Unlike ``hang`` (whose default stall is so
    long the engine must kill the worker), ``delay`` models tail latency:
    the execution still succeeds, just late.  The serve chaos suite uses
    it to fill queues and exercise backpressure and deadline budgets.

A rule matching a :func:`repro.engine.runners.closed_form` point fires in
the calling process at any ``workers``, as at ``workers=0``, unless a time
limit sends the point to a pool; a ``crash`` there kills the caller.
Crash and hang drills target machine points.

Attempt counting must survive the very failures it triggers (a crashed
worker cannot remember it crashed), so counts live on disk: executing a
matched point atomically claims the next slot file in the plan's counter
directory via ``O_CREAT | O_EXCL``, which is race-free across processes.
Plans without a counter directory fall back to per-process in-memory
counts — fine for serial runs, wrong across worker death.

Use the :func:`inject_faults` context manager in tests (it makes a fresh
counter directory and restores the environment), or set ``REPRO_FAULTS``
by hand for headless/CI runs::

    REPRO_FAULTS='{"dir": ".faults", "rules":
        [{"mode": "crash", "kind": "seq_io", "params": {"n": 16}}]}'
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.analysis.results import canonical_json

__all__ = [
    "ENV_VAR",
    "FAULT_MODES",
    "FaultInjected",
    "FaultRule",
    "FaultPlan",
    "apply_fault",
    "inject_faults",
]

ENV_VAR = "REPRO_FAULTS"
FAULT_MODES = ("crash", "hang", "raise", "corrupt", "delay")

#: Metrics returned by ``corrupt`` mode — recognizably garbage.
CORRUPT_METRICS = {"io": -1.0, "corrupt": True}


class FaultInjected(RuntimeError):
    """The failure raised by ``raise``-mode rules."""


@dataclass(frozen=True)
class FaultRule:
    """Fire ``mode`` on the first ``times`` executions of matching points.

    A point spec matches when ``kind`` (if set) equals the spec's kind and
    every entry of ``params`` (if set) equals the corresponding spec
    parameter — a subset match, so one rule can target a whole family or a
    single point.
    """

    mode: str
    kind: str | None = None
    params: dict | None = None
    times: int = 1
    hang_s: float = 3600.0
    delay_s: float = 1.0
    exit_code: int = 42

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}; pick from {FAULT_MODES}")

    def matches(self, spec: dict) -> bool:
        if self.kind is not None and spec.get("kind") != self.kind:
            return False
        if self.params:
            actual = spec.get("params", {})
            return all(actual.get(k) == v for k, v in self.params.items())
        return True

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "kind": self.kind,
            "params": self.params,
            "times": self.times,
            "hang_s": self.hang_s,
            "delay_s": self.delay_s,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultRule":
        return cls(
            mode=d["mode"],
            kind=d.get("kind"),
            params=d.get("params"),
            times=int(d.get("times", 1)),
            hang_s=float(d.get("hang_s", 3600.0)),
            delay_s=float(d.get("delay_s", 1.0)),
            exit_code=int(d.get("exit_code", 42)),
        )


@dataclass
class FaultPlan:
    """A set of rules plus the cross-process attempt-counter directory."""

    rules: list[FaultRule] = field(default_factory=list)
    dir: str | None = None

    def to_env(self) -> str:
        return json.dumps({"dir": self.dir, "rules": [r.to_dict() for r in self.rules]})

    @classmethod
    def from_env(cls, raw: str) -> "FaultPlan":
        d = json.loads(raw)
        return cls(
            rules=[FaultRule.from_dict(r) for r in d.get("rules", [])],
            dir=d.get("dir"),
        )


# per-process fallback counters for plans without a counter directory
_MEM_COUNTS: dict[str, int] = {}


def _claim_attempt(counter_dir: str | None, ident: str) -> int:
    """Atomically claim this execution's 1-based attempt number."""
    if counter_dir is None:
        _MEM_COUNTS[ident] = _MEM_COUNTS.get(ident, 0) + 1
        return _MEM_COUNTS[ident]
    os.makedirs(counter_dir, exist_ok=True)
    n = 1
    while True:
        try:
            fd = os.open(
                os.path.join(counter_dir, f"{ident}.{n}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
            os.close(fd)
            return n
        except FileExistsError:
            n += 1


def apply_fault(spec: dict) -> tuple[dict, dict] | None:
    """Fire the first matching active fault for ``spec``, if any.

    Called by :func:`repro.engine.runners.execute_point` at the top of
    every execution, in whichever process runs the point.  Returns None
    when the point should execute normally, or a ``(metrics, trace)``
    payload for ``corrupt`` mode; ``crash`` exits, ``raise`` raises, and
    ``hang`` / ``delay`` sleep (``hang_s`` / ``delay_s``) before letting
    the execution proceed.
    """
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    plan = FaultPlan.from_env(raw)
    for idx, rule in enumerate(plan.rules):
        if not rule.matches(spec):
            continue
        digest = hashlib.sha256(canonical_json(spec).encode()).hexdigest()[:16]
        attempt = _claim_attempt(plan.dir, f"r{idx}-{digest}")
        if attempt > rule.times:
            return None  # this rule is spent for this point — run normally
        if rule.mode == "crash":
            os._exit(rule.exit_code)
        if rule.mode in ("hang", "delay"):
            time.sleep(rule.hang_s if rule.mode == "hang" else rule.delay_s)
            return None
        if rule.mode == "raise":
            raise FaultInjected(
                f"injected {spec.get('kind', '?')} failure (attempt {attempt}/{rule.times})"
            )
        return dict(CORRUPT_METRICS), {}
    return None


@contextmanager
def inject_faults(*rules: FaultRule, counter_dir: str | None = None):
    """Install a fault plan in the environment for the enclosed block.

    Creates a fresh counter directory (unless given one) so attempt counts
    are shared with — and survive the death of — worker processes, then
    restores ``REPRO_FAULTS`` and removes the directory on exit.
    """
    own_dir = counter_dir is None
    cdir = tempfile.mkdtemp(prefix="repro-faults-") if own_dir else counter_dir
    plan = FaultPlan(rules=list(rules), dir=cdir)
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = plan.to_env()
    try:
        yield plan
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
        if own_dir:
            shutil.rmtree(cdir, ignore_errors=True)
