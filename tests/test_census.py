"""The census against the brute-force oracles on every enumerated graph.

Each isomorphism class of the two specs below is checked: the Sils, Stils
and Fsils read from one :class:`Census` equal the per-definition scans of
``oracles``, the memoised star components equal union-find components,
and the commuting edges of the presentation equal the rule that scans all
Sils for each generator pair.
"""

import itertools

import pytest

from silscope.harness import EnumSpec, enumerate_graphs
from silscope.outer import presentation
from silscope.sils import Census

import oracles

SPECS = [EnumSpec(6, orders=(2,), dedup_isomorphic=True),
         EnumSpec(5, orders=(2, 3), dedup_isomorphic=True)]


def check_against_oracles(g):
    census = Census(g)
    sils = oracles.sil_census(g)
    got = [(s.pair, s.component, s.coxeter) for s in census.sils]
    assert len(got) == len(set(got)) and set(got) == sils
    stils = [(s.triple, s.component) for s in census.stils]
    assert len(stils) == len(set(stils)) and set(stils) == oracles.stil_census(g)
    assert {f.triple for f in census.fsils} == oracles.fsil_census(g)
    for f in census.fsils:
        for (a, b), sil in zip(itertools.combinations(f.triple, 2), f.sils):
            (third,) = set(f.triple) - {a, b}
            assert sil.pair == (a, b) and third in sil.component
    for v in range(g.n):
        keep = set(range(g.n)) - oracles.neighbors_scan(g, v) - {v}
        assert list(census.star_components(v)) == oracles.components_uf(g, keep)
    pres = presentation(census)
    gens = pres.generators
    expected = {(i, j) for i, j in itertools.combinations(range(len(gens)), 2)
                if oracles.commutes_by_sil_scan(g, gens[i], gens[j], sils)}
    assert pres.commuting_edges == expected


@pytest.mark.parametrize("spec", SPECS, ids=["n6_orders2", "n5_orders23"])
def test_census_matches_oracles_on_every_class(spec):
    count = 0
    for g in enumerate_graphs(spec):
        check_against_oracles(g)
        count += 1
    assert count == {6: 208, 5: 662}[spec.max_vertices]
