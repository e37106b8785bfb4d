"""Which verify identities catch a wrong operator table.

Each mutant flips the sign of the middle pair of every table one builder
returns (of a product table: doubles it, and the table's gain), patched in
every module that binds the builder, and runs every suite at n = 2 and 3
with 2 trials.  The identities that fail are pinned per builder, so a
change that stops a check from reading an operator, or a check that only
restates its own inputs, shows up as a changed set.  The batch kernels get
mutants of their own: the constant factor of `Batch.__mul__`, the sums of
`_reduced`, and the tier choice of `_cast` and `_gaussian`, the last two
run with coefficients whose products pass 2^53.
"""

import pytest

from kahlerlab import exterior, harness, kaehler
from kahlerlab.exterior import Batch
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

# The identities that fail under each kernel mutant, with the coefficient
# bound of its run.  No suite hands `_gaussian` parts of 2^53 or more without
# asking for objects, and a draw rounded into complex128 is another exact
# form on which every identity holds, so no suite catches the raised limit;
# the tier tests of test_exterior do.
_KERNEL_CAUGHT_BY = {
    "_constant": (3, {
        "bilinear-relation", "binomial-bound", "commutator", "double-star", "norm-expansion",
        "polarization-expansion", "power-scaling", "subtop-power-expansion",
        "subtop-power-upper", "top-power-expansion", "top-power-upper",
    }),
    "_reduced": (3, {
        "adjointness", "bilinear-relation", "commutator", "decomposition-parts-primitive",
        "decomposition-round-trip", "double-star", "power-vanishing",
    }),
    "_cast": (10 ** 12, {
        "adjointness", "bilinear-relation", "norm-expansion", "polarization-expansion",
        "power-scaling", "subtop-power-expansion", "top-power-expansion",
    }),
    "_gaussian": (2 ** 62, set()),
}

# The identities no mutant above reaches: the dimension counts, and the
# Prop 3.3 lower bounds, which one flipped sign leaves true.
_UNREACHED = {
    "primitive-dimension", "primitive-dimension-formula", "top-power-lower", "subtop-power-lower",
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


def _negated_constant(constant):
    """Every constant factor of a batch product with its sign flipped."""
    def mutant(n, c):
        out = constant(n, c)
        return out if out is NotImplemented else Batch(n, 0, -out.num, out.den, out._max)
    return mutant


def _flipped_sums(reduced):
    """The sums of the middle output column of every table application and
    batch product with their sign flipped."""
    def mutant(n, table, *args):
        out = reduced(n, table, *args)
        if not table.outputs.size:
            return out
        middle, num = table.outputs[table.outputs.size // 2], out.num.copy()
        num[:, middle] = -num[:, middle]
        return Batch(out.n, out.k, num, out.den, out._max)
    return mutant


def _unbounded_cast(cast):
    """The tier chosen as if every bound were 0: complex128 operands stay
    complex128, and round, past 2^53."""
    return lambda bound, *arrays: cast(0, *arrays)


def _raised_limit(gaussian):
    """Parts not asked for as objects made complex128 below 2^64, not 2^53."""
    def mutant(*args, **kwargs):
        limit, exterior._EXACT_LIMIT = exterior._EXACT_LIMIT, 2 ** 64
        try:
            return gaussian(*args, **kwargs)
        finally:
            exterior._EXACT_LIMIT = limit
    return mutant


_KERNEL_MUTANTS = {"_constant": _negated_constant, "_reduced": _flipped_sums,
                   "_cast": _unbounded_cast, "_gaussian": _raised_limit}


def _failing(coeff_bound: int = 3) -> set[str]:
    return {failure.identity.split("[")[0] for n in (2, 3)
            for report in run_all(n, 2, RandomSpec(seed=42, coeff_bound=coeff_bound))
            for failure in report.failures}


def _patch(monkeypatch, name: str, mutant) -> None:
    """name replaced by mutant(original) in every module that binds it."""
    original = getattr(kaehler, name, None) or getattr(exterior, name)
    for module in (exterior, kaehler, harness):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, mutant(original))


@pytest.mark.parametrize("builder", list(_CAUGHT_BY))
def test_each_table_builder_is_caught_by_its_pinned_identities(
        monkeypatch, fresh_caches, builder):
    _patch(monkeypatch, builder, _MUTANTS.get(builder, _flipped))
    assert _failing() == _CAUGHT_BY[builder]


# a rounded value past 2^63 cast to int64 warns; the wrong verdicts are the point
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kernel", list(_KERNEL_CAUGHT_BY))
def test_each_batch_kernel_is_caught_by_its_pinned_identities(monkeypatch, fresh_caches, kernel):
    coeff_bound, caught = _KERNEL_CAUGHT_BY[kernel]
    _patch(monkeypatch, kernel, _KERNEL_MUTANTS[kernel])
    assert _failing(coeff_bound) == caught


def test_the_unreached_identities_are_the_rest_of_the_sweep(monkeypatch):
    seen = set()

    def counting(self, identity, *args, _original=harness._Recorder.equal):
        seen.add(identity.split("[")[0])
        return _original(self, identity, *args)

    monkeypatch.setattr(harness._Recorder, "equal", counting)
    assert not _failing()
    assert not any(_failing(coeff_bound) for coeff_bound, _ in _KERNEL_CAUGHT_BY.values())
    caught = set().union(*_CAUGHT_BY.values(), *(ids for _, ids in _KERNEL_CAUGHT_BY.values()))
    assert seen - caught == _UNREACHED
