"""Pinned bytes of whole pipeline runs.

Each digest is the SHA-256 of canonical_bytes(report.to_json()) for a
`run_pipeline(spec=..., trials=..., L=..., trace_detail="full")` run on a
small generated ensemble: every record, its full purification trace, its
reduction report and the aggregates.  A change that is meant to leave
the pipeline's arithmetic alone (fewer evaluations of the same values,
moved checks) must leave these bytes as they are; one that changes a
float's last digit, a bound table entry or a chosen action fails here.
The `binary` and `reduce-m2-L120` digests were retaken when every rounded
binary step came to be decided on its run's scalars: step coefficients,
step costs, the observed step_cost_increase and sweep_drift moved in
their last digits, no other field did (`tests/pinned_diff.py`).
"""

import hashlib

import pytest

from lippoly import canonical_bytes
from lippoly.harness.generator import GeneratorSpec
from lippoly.harness.pipeline import run_pipeline

# name: (spec, trials, L, digest)
ENSEMBLES = {
    "binary": (
        GeneratorSpec(n=20, m=2, lam=0.05, seed=1),
        4,
        None,
        "3a29381b0fcea4fd3a3de9f024350ee2f092e6ffa9c476e7b94e17b7df80d348",
    ),
    "m3-sparse": (
        GeneratorSpec(n=15, m=3, lam=0.03, family="sparse", density=0.5, seed=2),
        4,
        None,
        "d5f9ed24439142e8a7aaa236f7d0e113379440dec36cc3349afc5fa78bb07383",
    ),
    "m3-coordination-mix": (
        GeneratorSpec(n=15, m=3, lam=0.03, family="coordination_mix", weight=0.5, seed=3),
        4,
        None,
        "772af2ac41558775c4cf7533f6567c102e05feee09ff1366855f6b6f1f69555c",
    ),
    "m8": (
        GeneratorSpec(n=10, m=8, lam=0.02, seed=4),
        2,
        None,
        "792fab95dd21c06239305a45d4ef5c4ad55b342454920a1e3bd2ea37b0e15799",
    ),
    "reduce-m2-L120": (
        GeneratorSpec(n=3, m=2, lam=0.3, seed=5),
        4,
        120,
        "f49a596bacd9e6af6be94f3ff771e3cc738ac1c80c06be3c40500c794c788a0f",
    ),
    "reduce-m3-L20": (
        GeneratorSpec(n=3, m=3, lam=0.3, seed=6),
        4,
        20,
        "9f980278e790a1f09bce0013a334234a0e17731f849acae6d6c37d9b445685a8",
    ),
}


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_pipeline_record_bytes_are_pinned(name):
    spec, trials, L, digest = ENSEMBLES[name]
    report = run_pipeline(spec=spec, trials=trials, L=L, trace_detail="full")
    assert all(r.outcome == "ok" for r in report.records)
    data = canonical_bytes(report.to_json())
    assert hashlib.sha256(data).hexdigest() == digest
