"""Which verify identities catch a wrong operator table.

Each mutant flips the sign of the middle pair of every table one builder
returns (of a product table: doubles it, and the table's gain), patched in
every module that binds the builder, and runs every suite at n = 2 and 3
with 2 trials.  The identities that fail are pinned per builder, so a
change that stops a check from reading an operator, or a check that only
restates its own inputs, shows up as a changed set.
"""

import pytest

from kahlerlab import exterior, harness, kaehler
from kahlerlab.harness import RandomSpec, run_all

# The identities (without their parameter tags) that fail under each mutant.
_CAUGHT_BY = {
    "_power_table": {
        "adjointness", "bilinear-relation", "commutator", "decomposition-round-trip",
        "dual-lefschetz-star-route", "hard-lefschetz-bijective",
        "hard-lefschetz-primitive-injective", "polarization-expansion", "power-scaling",
        "power-vanishing", "primitive-kernel-dimension", "primitive-kernel-member",
        "star-of-power", "top-power-expansion",
    },
    "_dual_lefschetz_table": {
        "adjointness", "commutator", "decomposition-parts-primitive",
        "dual-lefschetz-star-route", "primitive-bidegree-dimension",
    },
    "_star_table": {"double-star", "dual-lefschetz-star-route", "star-of-power"},
    "_conjugation_table": {
        "bilinear-relation", "double-star", "dual-lefschetz-star-route", "star-of-power",
    },
    "_primitive_table": {
        "primitive-bidegree-dimension", "primitive-kernel-dimension",
        "primitive-kernel-member", "star-of-power",
    },
    "_left_inverse_table": {
        "hard-lefschetz-bijective", "hard-lefschetz-primitive-injective",
        "primitive-kernel-dimension",
    },
    "_projection_table": {"bilinear-relation", "power-vanishing"},
    "_weil_table": {"star-of-power"},
    "_sl2_table": {
        "adjointness", "bilinear-relation", "commutator", "decomposition-parts-primitive",
        "decomposition-round-trip", "dual-lefschetz-star-route", "hard-lefschetz-bijective",
        "hard-lefschetz-primitive-injective", "norm-expansion", "polarization-expansion",
        "power-vanishing", "primitive-bidegree-dimension", "primitive-kernel-dimension",
        "subtop-power-expansion", "top-power-expansion",
    },
    "_wedge_table": {"bilinear-relation", "binomial-bound", "simple-bound"},
}

# The identities no mutant above reaches: the dimension counts, and the
# Prop 3.3 inequalities, which one flipped sign leaves true.
_UNREACHED = {
    "primitive-dimension", "primitive-dimension-formula",
    "top-power-lower", "top-power-upper", "subtop-power-lower", "subtop-power-upper",
}


def _flipped(builder):
    def mutant(*args):
        table = builder(*args)
        if not table.src.size:
            return table
        middle, coef = table.src.size // 2, table.coef.copy()
        coef[middle] = -coef[middle]
        return table._replace(coef=coef)
    return mutant


def _doubled(builder):
    """The middle pair of every product table at twice its sign, with the
    gain doubled to bound it."""
    def mutant(*args):
        table, left = builder(*args)
        middle, coef = table.src.size // 2, table.coef.copy()
        coef[middle] *= 2
        return table._replace(coef=coef, gain=2 * table.gain), left
    return mutant


_MUTANTS = {"_wedge_table": _doubled}


def _failing() -> set[str]:
    return {failure.identity.split("[")[0] for n in (2, 3)
            for report in run_all(n, 2, RandomSpec(seed=42)) for failure in report.failures}


@pytest.mark.parametrize("builder", list(_CAUGHT_BY))
def test_each_table_builder_is_caught_by_its_pinned_identities(
        monkeypatch, fresh_caches, builder):
    original = getattr(kaehler, builder, None) or getattr(exterior, builder)
    for module in (exterior, kaehler, harness):
        if getattr(module, builder, None) is original:
            monkeypatch.setattr(module, builder, _MUTANTS.get(builder, _flipped)(original))
    assert _failing() == _CAUGHT_BY[builder]


def test_the_unreached_identities_are_the_rest_of_the_sweep(monkeypatch):
    seen = set()

    def counting(self, identity, *args, _original=harness._Recorder.equal):
        seen.add(identity.split("[")[0])
        return _original(self, identity, *args)

    monkeypatch.setattr(harness._Recorder, "equal", counting)
    assert not _failing()
    caught = set().union(*_CAUGHT_BY.values())
    assert seen - caught == _UNREACHED
