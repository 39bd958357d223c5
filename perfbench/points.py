"""Seeded inputs of every workload: sweep points and serve request keys.

Everything here is a pure function of the workload seed, so the same seed
gives the same points, the same cache keys and the same input digest.
The seed reaches the program only as the ``seed`` parameter of the points
(the matrix seed of physical runs, a key component of symbolic ones) and
as the unique keys of the cold serve requests.  I/O counts do not depend
on matrix values, so the pinned counts in ``expected.json`` hold for every
seed.
"""

from __future__ import annotations

import hashlib
import json
import math

from repro.engine import (
    hybrid_point,
    lru_trace_point,
    parallel_comm_point,
    pebble_search_point,
    seq_io_point,
)
from repro.execution.hybrid import hybrid_depth
from repro.zoo import corpus_names, load_algorithm

SYMBOLIC_SIZES = 5
SYMBOLIC_MEMORIES = (48, 256, 4096)
LEAVES = ("tiled", "resident")


def matrix_seed(seed: int, salt: int = 0) -> int:
    """A 31-bit point seed derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{salt}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _zoo_sizes(alg, count: int) -> list[int]:
    """The ``repro zoo sweep`` default grid: powers of the base row
    dimension starting where the side first clears ~32."""
    first = max(3, math.ceil(math.log(32) / math.log(alg.n)))
    return [alg.n**level for level in range(first, first + count)]


def physical_sweeps(seed: int) -> list[tuple[str, str, list]]:
    """(name, swept parameter, points) of the machine-executed sweeps."""
    s = matrix_seed(seed)
    strassen = load_algorithm("strassen")
    depth = hybrid_depth(strassen, 256, 48)
    interior = [1, depth - 1]
    return [
        ("seq_io.strassen", "n",
         [seq_io_point("strassen", n, 48, seed=s) for n in (64, 128, 256)]),
        ("seq_io.classical", "n",
         [seq_io_point(None, n, 48, seed=s) for n in (64, 128, 256)]),
        *[
            (f"hybrid.strassen.{leaf}", "cutoff",
             [hybrid_point("strassen", 256, 48, c, seed=s, leaf=leaf)
              for c in interior])
            for leaf in LEAVES
        ],
        *[
            (f"seq_io.zoo.{backend}", "n",
             [seq_io_point("laderman", 27, 64, seed=s, backend=backend),
              seq_io_point("grey-522-18", 25, 64, seed=s, backend=backend)])
            for backend in ("reference", "vector")
        ],
        ("lru_trace", "n", [lru_trace_point(n, 1024) for n in (128, 256)]),
        ("pebble_search.beam_memo", "M",
         [pebble_search_point("zoo_recursive", 16, scheduler="beam-memo",
                              alg="strassen", n=8)]),
        ("parallel_comm.strassen", "P",
         [parallel_comm_point("strassen", 64, P, M=48, seed=s) for P in (7, 49)]),
    ]


def symbolic_sweeps(seed: int) -> list[tuple[str, str, list]]:
    """Every zoo entry × 5 sizes × 3 memories: one ``zoo sweep`` over n
    per (entry, M), and one ``zoo sweep --hybrid`` over every cutoff per
    (entry, M, leaf) at each of the two largest sizes."""
    s = matrix_seed(seed)
    sweeps = []
    for name in corpus_names():
        alg = load_algorithm(name)
        sizes = _zoo_sizes(alg, SYMBOLIC_SIZES)
        for M in SYMBOLIC_MEMORIES:
            sweeps.append((
                f"zoo.{name}.M{M}", "n",
                [seq_io_point(name, n, M, seed=s, backend="symbolic")
                 for n in sizes],
            ))
            for n in sizes[-2:]:
                depth = hybrid_depth(alg, n, M)
                for leaf in LEAVES:
                    sweeps.append((
                        f"zoo.{name}.n{n}.M{M}.{leaf}", "cutoff",
                        [hybrid_point(name, n, M, c, seed=s, leaf=leaf,
                                      backend="symbolic")
                         for c in range(depth + 1)],
                    ))
    return sweeps


def all_sweeps(seed: int) -> list[tuple[str, str, list]]:
    return physical_sweeps(seed) + symbolic_sweeps(seed)


def warm_serve_points(seed: int) -> list[dict]:
    """The few hundred point specs primed into the daemon during set-up."""
    s = matrix_seed(seed, 1)
    points = []
    for name in corpus_names():
        alg = load_algorithm(name)
        for n in _zoo_sizes(alg, 4):
            for M in (32, 48, 64, 128, 256, 1024, 4096):
                points.append(seq_io_point(name, n, M, seed=s, backend="symbolic"))
            for leaf in LEAVES:
                for c in range(hybrid_depth(alg, n, 48) + 1):
                    points.append(hybrid_point(name, n, 48, c, seed=s, leaf=leaf,
                                               backend="symbolic"))
    return [p.to_dict() for p in points]


def cold_serve_point(seed: int, stream: int, index: int) -> dict:
    """A symbolic ``seq_io`` point no earlier request has used: its key
    carries (seed, stream, index), so it always misses every cache."""
    names = corpus_names()
    name = names[index % len(names)]
    alg = load_algorithm(name)
    n = _zoo_sizes(alg, 4)[(index // len(names)) % 4]
    unique = (matrix_seed(seed, 2) << 24) | (stream << 20) | index
    return seq_io_point(name, n, 48, seed=unique, backend="symbolic").to_dict()


def digest(payload) -> str:
    """sha256 of the canonical JSON of a workload's generated inputs."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def count_signature(kind: str, metrics: dict) -> list:
    """The exact counts pinned per point: (io, reads, writes) or the
    kind's analogue."""
    fields = {
        "seq_io": ("io", "reads", "writes"),
        "hybrid": ("io", "reads", "writes"),
        "lru_trace": ("io", "misses", "writebacks"),
        "pebble_search": ("io", "loads", "stores"),
        "parallel_comm": ("comm_per_proc_max", "local_io_per_proc"),
    }[kind]
    return [metrics[f] for f in fields]


def pin_id(point) -> str:
    """Seed-free identity of a point, the key of ``expected.json``."""
    params = {k: v for k, v in point.params.items() if k != "seed"}
    return json.dumps({"kind": point.kind, "params": params}, sort_keys=True)
