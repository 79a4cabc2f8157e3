import os
import random

import pytest

from bdecat import serialize
from bdecat.dmodules import (AInfModule, ModuleGenerator, StructureEquationFails,
                             TypeDStructure, check_type_d)
from bdecat.grading import m_table
from bdecat.pmc import split_pmc, torus_pmc
from bdecat.torus import torus_algebra

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name + ".json")


def load_fixture(name: str):
    return serialize.read(fixture_path(name))[1]


@pytest.fixture(scope="session")
def torus():
    return torus_pmc()


@pytest.fixture(scope="session")
def split2():
    return split_pmc(2)


@pytest.fixture(scope="session")
def talg():
    return torus_algebra()


CFK_NAMES = ["cfk_unknot", "cfk_trefoil_right", "cfk_trefoil_left",
             "cfk_figure8", "cfk_torus34", "cfk_cable2m1_left_trefoil"]

DIAGRAM_NAMES = ["diag_solid_torus", "diag_solid_torus_slope1",
                 "diag_handlebody_g2_a", "diag_handlebody_g2_b",
                 "diag_twisted_p2", "diag_twisted_p3", "diag_rank_deficient",
                 "diag_antipodal_g2"]

PATTERN_NAMES = ["cfa_core", "cfa_with_ops", "cfa_trefoil_pattern",
                 "cfa_winding2"]


# coefficient choices per (left idempotent, right idempotent, m value)
_EDGE_CHOICES = None


def edge_choices():
    global _EDGE_CHOICES
    if _EDGE_CHOICES is None:
        alg = torus_algebra()
        m = m_table(alg.pmc)
        table = {}
        for i in alg.index.values():
            s, t = alg.basis.idempotents[i]
            table.setdefault((s, t, m[i]), []).append(i)
        _EDGE_CHOICES = table
    return _EDGE_CHOICES


def random_type_d(rng: random.Random, n_gens=None, with_a=True) -> TypeDStructure:
    """A random bounded type D structure over the torus algebra with
    m-consistent coefficients: edges are drawn afresh until the structure
    equation holds."""
    pmc = torus_pmc()
    n = n_gens or rng.randint(1, 5)
    gens = [ModuleGenerator(f"y{i}", frozenset({rng.choice([1, 2])}),
                            rng.randint(0, 1),
                            a2=rng.randint(-4, 4) if with_a else None)
            for i in range(n)]
    while True:
        delta = []
        for i in range(n):
            for j in range(i + 1, n):  # edges i -> j keep the digraph acyclic
                if rng.random() < 0.4:
                    key = (gens[i].idempotent, gens[j].idempotent,
                           (gens[i].m - gens[j].m - 1) % 2)
                    options = edge_choices().get(key, [])
                    if options:
                        delta.append((gens[i].name, rng.choice(options),
                                      gens[j].name))
        N = TypeDStructure(pmc, gens, delta)
        try:
            check_type_d(N)
        except StructureEquationFails:
            continue
        return N


def random_ainf(rng: random.Random, n_gens=None, with_a=True) -> AInfModule:
    """A random A-infinity module: graded generators, no operations."""
    pmc = torus_pmc()
    n = n_gens or rng.randint(1, 5)
    gens = [ModuleGenerator(f"x{i}", frozenset({rng.choice([1, 2])}),
                            rng.randint(0, 1),
                            a2=rng.randint(-4, 4) if with_a else None)
            for i in range(n)]
    return AInfModule(pmc, gens, [])
