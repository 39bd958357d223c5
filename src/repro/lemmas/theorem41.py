"""Theorem 4.1: the bounds transfer to alternative-basis algorithms.

Two measurable claims back the theorem:

1. the folded form of an alternative-basis algorithm is itself a valid
   ⟨2,2,2;7⟩ algorithm, so every Section III lemma applies to it verbatim
   (we run Lemmas 3.1–3.3 on the folded triple);
2. the basis-transform I/O is asymptotically negligible against the
   bilinear part (measured phase split from the ABMM execution shrinks
   with n), so the Ω((n/√M)^{log₂7}·M) floor carries over.
"""

from __future__ import annotations

from repro import schedule
from repro.basis.abmm import AlternativeBasisAlgorithm
from repro.bounds.formulas import fast_sequential
from repro.lemmas.lemma31 import check_lemma31
from repro.lemmas.lemma32_33 import check_lemma32, check_lemma33

__all__ = ["check_theorem41"]


def check_theorem41(
    alt: AlternativeBasisAlgorithm,
    sizes: tuple[int, ...] = (16, 32, 64),
    M: int = 48,
    seed: int = 0,
) -> dict[str, object]:
    """Run both halves of the Theorem 4.1 argument; raises on failure.

    Returns the transform fractions per size and the folded-lemma reports.
    """
    folded = alt.plain()
    reports = {
        "lemma31_A": check_lemma31(folded, "A"),
        "lemma31_B": check_lemma31(folded, "B"),
        "lemma32": check_lemma32(folded, "A"),
        "lemma33": check_lemma33(folded, "A"),
    }
    fractions = []
    for n in sizes:
        # the machine backend runs ABMM in full and checks C == A @ B
        spec = schedule.seq_io_schedule(alt, n, M, replay=False)
        spec.payload["seed"] = seed
        phases = schedule.run(spec, backend="machine").metrics
        if phases["io_total"] < fast_sequential(n, M) * 1e-9:
            raise AssertionError("measured ABMM I/O fell below the Ω floor")
        fractions.append(phases["transform_fraction"])
    if len(fractions) >= 2 and not fractions[-1] <= fractions[0]:
        raise AssertionError(
            f"transform fraction did not shrink with n: {fractions}"
        )
    return {"transform_fractions": dict(zip(sizes, fractions)), **reports}
