"""Corpus loader: checked-in ⟨n,m,p;t⟩ coefficient files, Brent-validated.

The corpus is a directory of JSON files (``repro/zoo/corpus/*.json``), one
algorithm each::

    {
      "schema": 1,
      "name": "laderman",
      "n": 3, "m": 3, "p": 3, "t": 23,
      "provenance": "Laderman (1976) ...",
      "U": [[...t rows of n*m ints...]],
      "V": [[...t rows of m*p ints...]],
      "W": [[...n*p rows of t ints...]]
    }

Every load re-checks the Brent equations — a corpus file cannot silently
drift from a valid algorithm (the falsify mutant battery certifies that
the checker actually kills truncated/sign-flipped entries).  Loaded
entries are cached per (path, mtime); the files themselves are part of
the engine's ``code_version()`` digest so cached *measurements* are
invalidated when a coefficient file changes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.algorithms.bilinear import BilinearAlgorithm
from repro.algorithms.brent import brent_residual

__all__ = [
    "CORPUS_SCHEMA",
    "CorpusValidationError",
    "CorpusEntry",
    "corpus_dir",
    "corpus_names",
    "load_entry",
    "load_algorithm",
    "validate_corpus",
    "omega0_table",
    "SWEEP_EXPONENT_TOLERANCES",
    "DEFAULT_SWEEP_TOLERANCE",
    "sweep_tolerance",
]

CORPUS_SCHEMA = 1

#: Per-algorithm |fitted − ω₀| gates for ``repro zoo sweep`` on the
#: *default* grid (4 points from where the side clears ~32; symbolic
#: backend).  Measured at M = 64: laderman/grey-333 fit within 0.015,
#: classical within 0.045, the ⟨2,2,2;7⟩ pair within 0.070, and the
#: rectangular grey-522-18 within 0.074 — so the old flat 0.15 gate was
#: ~2× looser than any entry needs, and grey-522-18 fitted 2.990 vs ω₀
#: 2.894 on a *3-point* grid (diff 0.096) while still passing.  Each
#: gate sits between its entry's measured default-grid diff and the
#: shallow-grid overshoot it exists to reject: tight enough to catch a
#: regression (or an under-sized grid), loose enough for the
#: pre-asymptotic droop of the default grid.
SWEEP_EXPONENT_TOLERANCES: dict[str, float] = {
    "classical-222": 0.06,
    "grey-333-23-221": 0.03,
    "grey-522-18": 0.08,
    "laderman": 0.03,
    "strassen": 0.10,
    "winograd": 0.10,
}

#: Fallback gate for corpus entries without a measured row above.
DEFAULT_SWEEP_TOLERANCE = 0.15


def sweep_tolerance(name: str) -> float:
    """The zoo-sweep exponent gate for one corpus entry (default grid)."""
    return SWEEP_EXPONENT_TOLERANCES.get(name, DEFAULT_SWEEP_TOLERANCE)


class CorpusValidationError(ValueError):
    """A corpus file is malformed or fails the Brent equations."""


@dataclass(frozen=True)
class CorpusEntry:
    """One loaded, validated corpus algorithm plus its file metadata."""

    name: str
    algorithm: BilinearAlgorithm
    provenance: str
    path: Path

    @property
    def signature(self) -> str:
        return self.algorithm.signature()

    @property
    def omega0(self) -> float:
        return self.algorithm.omega0


@functools.cache
def corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def _corpus_files() -> list[Path]:
    return sorted(corpus_dir().glob("*.json"))


def corpus_names() -> list[str]:
    """Names of every corpus entry (file stems, sorted)."""
    return [p.stem for p in _corpus_files()]


def _parse(path: Path) -> CorpusEntry:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusValidationError(f"{path.name}: unreadable corpus file: {exc}")
    for key in ("schema", "name", "n", "m", "p", "t", "U", "V", "W"):
        if key not in doc:
            raise CorpusValidationError(f"{path.name}: missing field {key!r}")
    if doc["schema"] != CORPUS_SCHEMA:
        raise CorpusValidationError(
            f"{path.name}: schema {doc['schema']} != {CORPUS_SCHEMA}"
        )
    if doc["name"] != path.stem:
        raise CorpusValidationError(
            f"{path.name}: name {doc['name']!r} does not match file stem"
        )
    try:
        alg = BilinearAlgorithm(
            name=doc["name"],
            n=int(doc["n"]),
            m=int(doc["m"]),
            p=int(doc["p"]),
            U=np.array(doc["U"], dtype=np.int64),
            V=np.array(doc["V"], dtype=np.int64),
            W=np.array(doc["W"], dtype=np.int64),
        )
    except (ValueError, TypeError) as exc:
        raise CorpusValidationError(f"{path.name}: bad coefficients: {exc}")
    if alg.t != int(doc["t"]):
        raise CorpusValidationError(
            f"{path.name}: declared t={doc['t']} but U has {alg.t} rows"
        )
    residual = brent_residual(alg)
    if residual.any():
        bad = int(np.count_nonzero(residual))
        raise CorpusValidationError(
            f"{path.name}: Brent equations fail at {bad} index triples — "
            "the coefficients do not compute matrix multiplication"
        )
    return CorpusEntry(
        name=alg.name,
        algorithm=alg,
        provenance=str(doc.get("provenance", "")),
        path=path,
    )


# (path, mtime_ns) → CorpusEntry; revalidates automatically on file edits.
_cache: dict[tuple[str, int], CorpusEntry] = {}


def load_entry(name: str) -> CorpusEntry:
    """Load + Brent-validate one corpus entry by name (cached per mtime)."""
    path = corpus_dir() / f"{name}.json"
    if path.parent != corpus_dir() or not path.is_file():  # a name, not a path
        known = ", ".join(corpus_names()) or "<empty corpus>"
        raise KeyError(f"no corpus entry {name!r} (known: {known})")
    key = (str(path), path.stat().st_mtime_ns)
    if key not in _cache:
        _cache[key] = _parse(path)
    return _cache[key]


def load_algorithm(name: str) -> BilinearAlgorithm:
    """The validated :class:`BilinearAlgorithm` of one corpus entry."""
    return load_entry(name).algorithm


def validate_corpus() -> list[dict]:
    """Parse + Brent-check every corpus file; returns one report per file.

    Invalid entries are reported (``ok=False`` with the error message)
    rather than raised, so a single bad file doesn't mask the rest.
    """
    reports = []
    for path in _corpus_files():
        try:
            entry = load_entry(path.stem)
        except CorpusValidationError as exc:
            reports.append({"name": path.stem, "ok": False, "error": str(exc)})
        else:
            reports.append(
                {
                    "name": entry.name,
                    "ok": True,
                    "signature": entry.signature,
                    "t": entry.algorithm.t,
                    "omega0": entry.omega0,
                    "square": entry.algorithm.is_square,
                    "provenance": entry.provenance,
                }
            )
    return reports


def omega0_table() -> list[dict]:
    """Per-algorithm ⟨n,m,p;t⟩ and ω₀ = 3·log_{nmp} t across the corpus."""
    rows = []
    for name in corpus_names():
        entry = load_entry(name)
        a = entry.algorithm
        rows.append(
            {
                "name": name,
                "n": a.n,
                "m": a.m,
                "p": a.p,
                "t": a.t,
                "omega0": a.omega0,
                "square": a.is_square,
            }
        )
    return rows
