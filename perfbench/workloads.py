"""The workloads: their inputs, their one timed call, and its check.

A workload's inputs are one *round*: a fixed list of items made from the
seed; a run only ever attempts whole rounds.  ``wd`` is the imported
``wdcolor`` package; every call into it goes through its module attributes
at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

import gen
from checks import coloring_problems, minor_model_problems

#: Hosts per rule label: the number of base graphs of the label's host
#: families in ``wdcolor.hosts`` (L1 has two kinds of 8), the least budget
#: at which every base, and so every lift recipe, is certified.
CERTIFY_BUDGETS = {"L1": 16, "L2": 6, "L3": 3, "L4": 3, "L5": 3, "L6": 3,
                   "L7": 2, "L8": 2, "L9": 5, "L10": 4}

#: Seconds after which one operation is stopped and counted as failed.
CAP_S = {"tri-reduce": 60.0, "radial-core": 2.0, "small-mixed": 60.0,
         "certify-lemmas": 60.0}


@dataclass
class Item:
    """One input of a round."""

    name: str
    work: int = 0                 # input vertices (coloring workloads)
    graph: object = None          # the input as a wdcolor.Graph
    label: str = ""               # rule label (certify-lemmas)
    edges: list | None = None     # the input's edges, for the checker
    adj: object = None            # checker adjacency, built after set-up
    nonplanar: bool = False       # small-mixed inputs that must be rejected


# --- tri-reduce --------------------------------------------------------

#: (vertices, edge density): full triangulations and thinned ones.  A
#: round must stay under half a worker's share of a 30-s run, so that each
#: worker times every input twice.
TRI_SIZES = ((150, 1.0), (200, 0.9), (250, 1.0), (300, 0.8), (500, 0.6),
             (700, 0.4))


def tri_reduce(wd, seed: int) -> list[Item]:
    items = []
    for i, (n, d) in enumerate(TRI_SIZES):
        g = wd.random_planar(n, d, seed * 1000 + i)
        items.append(Item(name=f"tri-n{n}-d{d}", work=g.n, graph=g))
    return items


# --- radial-core -------------------------------------------------------

#: Vertices of the seeded Eulerian triangulations; radial graphs have
#: 3n - 4.  As on tri-reduce, a round stays under half a worker's share.
RADIAL_SIZES = (81, 126, 171)

#: Fixed inputs, the same for every seed: radial graphs of
#: ``gen.split_triangulation(n, Random(s))`` as (n, s).  On the first,
#: the exact 4-coloring of H backtracks for about 0.3 s and succeeds.
#: On the second it does not end (it ran for minutes), so the operation
#: is stopped at its cap and counted as failed in every round.
RADIAL_FIXED = ((150, 28), (250, 2))


def _radial_item(wd, name: str, n: int, seed: int, kind: str) -> Item:
    nv, edges = gen.radial_graph(n, seed, kind)
    return Item(name=name, work=nv, edges=edges,
                graph=wd.Graph.from_edges(edges, vertices=range(nv)))


def radial_core(wd, seed: int) -> list[Item]:
    items = [_radial_item(wd, f"radial-eulerian-n{n}", n, seed * 1000 + i,
                          "eulerian")
             for i, n in enumerate(RADIAL_SIZES)]
    items += [_radial_item(wd, f"radial-split-n{n}-s{s}", n, s, "split")
              for n, s in RADIAL_FIXED]
    return items


# --- small-mixed -------------------------------------------------------

#: Seeded desk-scale planar graphs, drawn as the acceptance suite's
#: criterion 3 draws them: input i has 4 + i % 11 vertices and density
#: DESK_DENSITIES[i % 5].
DESK_COUNT = 220
DESK_DENSITIES = (0.3, 0.5, 0.7, 0.85, 1.0)
#: The planar graphs of ``wdcolor``'s named catalog.
PLANAR_NAMES = ("c5", "cube", "fig7a", "fig7b", "k4", "k4_subdivided")
#: Vertices of the triangulations plus one edge, with generator seed n,
#: the same for every seed: the minor-witness search takes 2-6x longer on
#: one seed than on another of the same size, which would swamp the
#: comparison of runs with different seeds.
NONPLANAR_SIZES = (8, 12, 16, 24, 32, 48)
#: Above 64 vertices ``is_planar`` gives no minor model, so these
#: operations fail in every round.
NONPLANAR_LARGE_SIZES = (70, 100)


def _nonplanar_item(wd, name: str, n: int, edges) -> Item:
    return Item(name=name, work=n, edges=edges, nonplanar=True,
                graph=wd.Graph.from_edges(edges, vertices=range(n)))


def small_mixed(wd, seed: int) -> list[Item]:
    items = []
    for i in range(DESK_COUNT):
        n, d = 4 + i % 11, DESK_DENSITIES[i % 5]
        g = wd.random_planar(n, d, seed * 1000 + i)
        items.append(Item(name=f"desk-{i}-n{n}-d{d}", work=g.n, graph=g))
    for name in PLANAR_NAMES:
        g = wd.named(name)
        items.append(Item(name=name, work=g.n, graph=g))
    items.append(_nonplanar_item(wd, "K5", 5, gen.K5))
    items.append(_nonplanar_item(wd, "K33", 6, gen.K33))
    for n in NONPLANAR_SIZES + NONPLANAR_LARGE_SIZES:
        items.append(_nonplanar_item(wd, f"tri+edge-n{n}", n,
                                     gen.triangulation_plus_edge(n, n)))
    return items


# --- certify-lemmas ----------------------------------------------------

def certify_lemmas(wd, seed: int) -> list[Item]:
    labels = list(wd.SHORT_KINDS)
    random.Random(seed).shuffle(labels)
    return [Item(name=label, label=label) for label in labels]


# --- operations and checks ---------------------------------------------

class Workload:
    """Inputs, timed call and check of one workload."""

    def __init__(self, name: str, wd, seed: int) -> None:
        self.name = name
        self.wd = wd
        self.cap_s = CAP_S[name]
        self.items = MAKERS[name](wd, seed)
        self.certifying = name == "certify-lemmas"

    def warmup_item(self) -> Item:
        return min(self.items, key=lambda it: (it.work, it.name))

    def prepare_checks(self) -> None:
        """Build the checker's networkx adjacency of every input."""
        for item in self.items:
            if item.graph is None:
                continue
            G = nx.Graph()
            G.add_nodes_from(item.graph.vertices())
            G.add_edges_from(item.edges if item.edges is not None
                             else item.graph.edges())
            item.adj = G.adj

    def run(self, item: Item):
        """The timed call; None when the operation failed.

        A nonplanar input's operation is ``is_planar``, the certificate
        that ``wd3_color_planar`` rejects such an input on; it fails when
        the certificate holds no minor model.
        """
        if self.certifying:
            return self.wd.certify_lemma(
                item.label, budget=CERTIFY_BUDGETS[item.label])
        if item.nonplanar:
            cert = self.wd.is_planar(item.graph)
            return cert if cert.is_planar or cert.minor_kind else None
        return self.wd.wd3_color_planar(item.graph)

    def work(self, item: Item, result) -> int:
        return result.lifts_succeeded if self.certifying else item.work

    def check(self, item: Item, result) -> list[str]:
        """Problems with the output; empty when it is right."""
        if self.certifying:
            return self._check_report(item, result)
        if item.nonplanar:
            problems = minor_model_problems(item.adj, result.minor_kind,
                                            result.branch_sets)
        else:
            problems = coloring_problems(item.adj, result)
        return [f"{item.name}: {p}" for p in problems]

    @staticmethod
    def _check_report(item: Item, report) -> list[str]:
        problems = []
        if not report.ok:
            problems.append("report is not ok")
        if report.hosts_checked != CERTIFY_BUDGETS[item.name]:
            problems.append(f"{report.hosts_checked} hosts checked")
        if report.embed_failures or report.lift_failures \
                or report.equivariance_failures:
            problems.append("failures listed")
        if not report.lifts_succeeded == report.colorings_checked > 0:
            problems.append(f"{report.lifts_succeeded} lifts of"
                            f" {report.colorings_checked} colorings")
        return [f"{item.name}: {p}" for p in problems]


MAKERS = {
    "tri-reduce": tri_reduce,
    "radial-core": radial_core,
    "small-mixed": small_mixed,
    "certify-lemmas": certify_lemmas,
}
