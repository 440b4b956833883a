"""Golden corpus: the driver's colorings and the certification reports
must stay byte-identical.

About 300 seeded inputs — ``random_planar`` graphs of 4 to 60 vertices at
five densities, the planar graphs of the named catalog, and one input at
each size of the benchmark's ``tri-reduce`` workload — each pinned by the
SHA-256 of its graph, of its reduction steps and of its coloring, all in
canonical JSON.  Any change to generation, detection order, reductions or
lifts that alters a single byte of output shows up here.  Each rule
label's ``certify_lemma`` report, at the benchmark's budgets, is pinned
the same way.

Regenerate the stored digests (only when an output change is intended)::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from wdcolor.generators import named, random_planar
from wdcolor.pipeline import wd3_color_planar
from wdcolor.reductions import SHORT_KINDS, certify_lemma

DATA = Path(__file__).parent / "data" / "golden_colorings.json"
CERT_DATA = Path(__file__).parent / "data" / "golden_certification.json"

SMALL_SIZES = range(4, 61)
DENSITIES = (0.3, 0.5, 0.7, 0.85, 1.0)
PLANAR_NAMES = ("c5", "cube", "fig7a", "fig7b", "k4", "k4_subdivided")
#: (vertices, density) of the benchmark's tri-reduce inputs.
TRI_SIZES = ((150, 1.0), (200, 0.9), (250, 1.0), (300, 0.8), (500, 0.6),
             (700, 0.4))
#: Hosts per rule label, copied from ``CERTIFY_BUDGETS`` in
#: ``perfbench/workloads.py``: the least budgets that reach every base host.
CERTIFY_BUDGETS = {"L1": 16, "L2": 6, "L3": 3, "L4": 3, "L5": 3, "L6": 3,
                   "L7": 2, "L8": 2, "L9": 5, "L10": 4}


def corpus():
    """(name, graph) for every golden input, in a fixed order."""
    for n in SMALL_SIZES:
        for j, d in enumerate(DENSITIES):
            seed = 100 * n + j
            yield f"planar-n{n}-d{d}-s{seed}", random_planar(n, d, seed)
    for name in PLANAR_NAMES:
        yield name, named(name)
    for i, (n, d) in enumerate(TRI_SIZES):
        seed = 7000 + i
        yield f"tri-n{n}-d{d}-s{seed}", random_planar(n, d, seed)


def _sha(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def digests(g) -> dict[str, str]:
    """SHA-256 of the input's edges, the steps taken and the coloring."""
    steps: list = []
    coloring = wd3_color_planar(g, trace=steps)
    return {
        "graph": _sha([g.vertices(), list(g.edges())]),
        "steps": _sha(steps),
        "coloring": _sha({str(v): coloring[v] for v in sorted(coloring)}),
    }


def test_golden_corpus_is_byte_identical():
    stored = json.loads(DATA.read_text())
    seen = []
    mismatches = []
    for name, g in corpus():
        seen.append(name)
        got = digests(g)
        for field, digest in got.items():
            if stored.get(name, {}).get(field) != digest:
                mismatches.append(f"{name}: {field}")
    assert sorted(seen) == sorted(stored)
    assert len(seen) >= 290
    assert not mismatches, mismatches[:20]


def certification_digests() -> dict[str, str]:
    """SHA-256 of each rule label's certification report."""
    return {label: _sha(certify_lemma(label, budget).to_json_dict())
            for label, budget in CERTIFY_BUDGETS.items()}


def test_certification_reports_are_byte_identical():
    assert sorted(CERTIFY_BUDGETS) == sorted(SHORT_KINDS)
    assert certification_digests() == json.loads(CERT_DATA.read_text())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    DATA.parent.mkdir(exist_ok=True)
    table = {name: digests(g) for name, g in corpus()}
    DATA.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DATA}")
    certs = certification_digests()
    CERT_DATA.write_text(json.dumps(certs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(certs)} digests to {CERT_DATA}")
