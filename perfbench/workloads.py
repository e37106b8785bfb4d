"""Workloads of the kahlerlab benchmark, with the checks on their outputs.

A workload is the list of CLI calls that make up one pass, built from a
seed.  Every call goes through ``kahlerlab.cli.main(argv)`` in-process and
prints JSON.  Nothing here imports kahlerlab at module import time, so the
benchmark can time the package import itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, floor, isqrt
from pathlib import Path
from typing import Callable, Optional

# Seed of the untimed warm-up pass and of the exact-output digest, so that
# the digest is checked on every run whatever the workload seed is.
DEFAULT_SEED = 42

# Listed here rather than taken from the package, so that a suite dropped
# from kahlerlab shows up as a failed call instead of a smaller workload.
SUITES = (
    "prop31",
    "lemma32",
    "prop33",
    "federer",
    "lefschetz",
    "star",
    "hodge-riemann",
    "sl2",
)

# check_star_primitive at n = 2 with a sign-flipped star: every one of the
# 16 star-of-power checks must fail (the double star is sign-blind).
VACUITY_FAILURES = 16

DIGESTS = Path(__file__).with_name("digests.json")


def derived_seed(*parts) -> int:
    """A 32-bit seed that depends only on `parts`."""
    text = "/".join(map(str, parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, warmup=False) -> argv of every call in one pass
    ops: Callable[..., list[list[str]]]
    # complex dimension of a verify workload; enables the vacuity control
    # and the exact-output digest
    dim: Optional[int] = None


def _verify(n: int, trials: int) -> Callable[..., list[list[str]]]:
    def build(seed: int, warmup: bool = False) -> list[list[str]]:
        return [
            ["verify", "--dim", str(n), "--suite", suite,
             "--trials", str(trials),
             "--seed", str(derived_seed("verify", n, seed, suite)),
             "--format", "json"]
            for suite in SUITES
        ]
    return build


def _spectrum(seed: int, warmup: bool = False) -> list[list[str]]:
    # The eigenproblems take no random input; the seed is unused.  The
    # spectral layer keeps no caches, so the warm-up only needs to touch
    # every code path and runs on grids ten times coarser.
    scale = 10 if warmup else 1
    ops = [["spectrum", "--model", "rh", "--m", "2", "--radii", "25,50,100",
            "--grid", str(100000 // scale), "--format", "json"]]
    for n in (1, 2, 3):
        ops.append(["spectrum", "--model", "ch", "--n", str(n),
                    "--radii", "15,20,30", "--grid", str(30000 // scale),
                    "--format", "json"])
    return ops


# Closed forms of acceptance 4: (complex dimension, lambda_0 bound at
# Ricci = -1) per classical factor.
def _factor_closed_form(family: str, a: int = 0, b: int = 0) -> tuple[int, Fraction]:
    if family == "I":
        return a * b, Fraction((a * b) ** 2, 2 * a * (a + b))
    if family == "II":
        return a * (a - 1) // 2, Fraction(a * a * (a - 1), 16 * (a // 2))
    if family == "III":
        return a * (a + 1) // 2, Fraction(a * (a + 1), 8)
    if family == "IV":
        return a, Fraction(a, 4)
    return (16, Fraction(16, 3)) if family == "V" else (27, Fraction(27, 4))


def _factors_of_dim(d: int) -> list[str]:
    """Labels of every classical factor of complex dimension d."""
    out = [f"I({p},{d // p})" for p in range(1, isqrt(d) + 1) if d % p == 0]
    out += [f"II({m})" for m in range(2, d + 2) if m * (m - 1) // 2 == d]
    out += [f"III({m})" for m in range(1, d + 1) if m * (m + 1) // 2 == d]
    out += [f"IV({d})"] if d >= 3 else []
    out += {16: ["V"], 27: ["VI"]}.get(d, [])
    return out


# The cost of a bsd call grows with the domain's dimension, so each seed
# draws one domain, single or product, per dimension: the domains vary
# with the seed, the work does not.
TABLE_DIMS = tuple(range(4, 52, 2))


def _tables(seed: int, warmup: bool = False) -> list[list[str]]:
    ops = [["constants", "--dim", str(n), "--format", "json"]
           for n in range(1, 31)]
    rng = random.Random(derived_seed("tables", seed))
    for d in TABLE_DIMS:
        if rng.random() < 0.5:
            label = rng.choice(_factors_of_dim(d))
        else:
            first = rng.randint(1, d - 1)
            label = f"{rng.choice(_factors_of_dim(first))}xI(1,{d - first})"
        ops.append(["bsd", "--product", label, "--degrees", "--format", "json"])
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-n4", _verify(4, 5), dim=4),
        Workload("verify-n5", _verify(5, 1), dim=5),
        Workload("spectrum", _spectrum),
        Workload("tables", _tables),
    )
}


# ---- per-call output checks -------------------------------------------------


def _opt(argv: list[str], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _check_verify(argv: list[str], out) -> Optional[str]:
    suite = _opt(argv, "--suite")
    if [rep.get("suite") for rep in out] != [suite]:
        return f"suite {suite} missing from the report"
    rep = out[0]
    if rep.get("pass") is not True or rep.get("failures"):
        return f"suite {suite} reported pass: false"
    expected = (int(_opt(argv, "--dim")), int(_opt(argv, "--trials")),
                int(_opt(argv, "--seed")))
    if (rep.get("n"), rep.get("trials"), rep.get("seed")) != expected:
        return "report does not describe the requested run"
    return None


def _check_spectrum(argv: list[str], out) -> Optional[str]:
    samples = out["samples"]
    if len(samples) != len(_opt(argv, "--radii").split(",")):
        return "a radius is missing from the samples"
    worst = max(s["residual"] for s in samples)
    if not worst <= 1e-10:
        return f"residual {worst:.3e} above 1e-10"
    value = out["extrapolated_scaled"]
    if _opt(argv, "--model") == "rh":
        ok = 0.249 <= value <= 0.251
    else:
        n = int(_opt(argv, "--n"))
        ok = abs(value / (n * n / 2) - 1) <= 0.01
    return None if ok else f"extrapolated bottom {value!r} outside its window"


def closed_c_k(n: int, k: int) -> Fraction:
    """Degree constant from its closed form, reflected above the middle."""
    if k > n:
        k = 2 * n - k
    return Fraction(
        factorial(n - k) ** 4 * factorial(ceil(k / 2) + 1) ** 4,
        4 * factorial(n - floor(k / 2)) ** 4,
    )


def closed_degree_constant(n: int, k: int) -> Fraction:
    """Table entry at degree k; the middle takes the adjacent minimum."""
    if k != n:
        return closed_c_k(n, k)
    if n == 1:
        return closed_c_k(1, 0)
    return min(closed_c_k(n, n - 1), closed_c_k(n, n + 1))


def _check_constants(argv: list[str], out) -> Optional[str]:
    n = int(_opt(argv, "--dim"))
    if [row["k"] for row in out] != list(range(2 * n + 1)):
        return "degree rows missing"
    for row in out:
        if Fraction(row["constant"]) != closed_degree_constant(n, row["k"]):
            return f"constant at n={n}, k={row['k']} disagrees with the closed form"
    return None


def _bsd_closed_form(argv: list[str]) -> tuple[int, Fraction]:
    """Complex dimension and lambda_0 bound of the domain a bsd call names.

    A product's bound is (sum n_f)^2 / (sum n_f^2 / lambda_f), which follows
    from lambda = n^2 / (2 L^2) with L^2 additive over factors.
    """
    parts = []
    for label in _opt(argv, "--product").split("x"):
        family, _, rest = label.partition("(")
        params = [int(v) for v in rest.rstrip(")").split(",") if v]
        parts.append(_factor_closed_form(family, *params))
    n = sum(dim for dim, _ in parts)
    return n, Fraction(n * n) / sum(Fraction(dim * dim) / lam for dim, lam in parts)


def _check_bsd(argv: list[str], out) -> Optional[str]:
    n, lam = _bsd_closed_form(argv)
    if [row["k"] for row in out] != [0] + list(range(2 * n + 1)):
        return "degree rows missing"
    if Fraction(out[0]["bound"]) != lam:
        return f"lambda_0 {out[0]['bound']} disagrees with the closed form {lam}"
    scale = 4 * lam / (n * n)  # 2 ricci / L^2
    for row in out[1:]:
        if Fraction(row["bound"]) != closed_degree_constant(n, row["k"]) * scale:
            return f"degree row k={row['k']} disagrees with the closed form"
    return None


_CHECKS = {
    "verify": _check_verify,
    "spectrum": _check_spectrum,
    "constants": _check_constants,
    "bsd": _check_bsd,
}


def check(argv: list[str], code: int, stdout: str) -> Optional[str]:
    """Why one call failed, or None when its exit code and output are right."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(stdout)
        return _CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError,
            ZeroDivisionError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"


# ---- vacuity control and exact-output digest ----------------------------------


def vacuity_failures() -> int:
    """Failures the star suite reports against a sign-flipped star at n = 2."""
    from kahlerlab.exterior import GaussRational
    from kahlerlab.harness import RandomSpec, check_star_primitive
    from kahlerlab.kaehler import hodge_star

    def flipped(a):
        return hodge_star(a) * GaussRational(-1)

    report = check_star_primitive(2, 10, RandomSpec(seed=DEFAULT_SEED), star_fn=flipped)
    return len(report.failures)


def _exact_results(n: int) -> list[str]:
    """Canonical strings of a few seeded exact results at dimension n."""
    from kahlerlab import RandomSpec, hodge_star, norm_sq, primitive_decompose, random_form

    rspec = RandomSpec(seed=DEFAULT_SEED)
    lines = []
    for p, q in ((1, 1), (2, 1), (1, 2), (2, 2)):
        a = random_form(n, p, q, rspec, trial=0)
        b = random_form(n, q, p, rspec, trial=1)
        parts = primitive_decompose(a).parts
        lines += [f"decompose({p},{q})[{r}] = {parts[r]}" for r in sorted(parts)]
        lines.append(f"star({p},{q}) = {hodge_star(a)}")
        lines.append(f"wedge-norm({p},{q}) = {norm_sq(a.wedge(b))}")
    return lines


@contextmanager
def counting_checks(counts: Counter):
    """Count the comparisons the verify suites make, by check identity.

    A passing report does not say how much was checked; these counts do,
    so a suite that skips trials or comparisons changes the digest.
    """
    from kahlerlab.harness import _Recorder

    saved = {attr: _Recorder.__dict__[attr] for attr in ("equal", "less_equal", "true")}

    def counting(fn: Callable) -> Callable:
        def compare(self, identity, *args):
            counts[identity] += 1
            return fn(self, identity, *args)
        return compare

    for attr, fn in saved.items():
        setattr(_Recorder, attr, counting(fn))
    try:
        yield counts
    finally:
        for attr, fn in saved.items():
            setattr(_Recorder, attr, fn)


def verify_digest(n: int, outputs: list[str], checks: Counter) -> str:
    """SHA-256 of the timing-free verify reports, the number of comparisons
    per check identity behind them, and the exact results."""
    h = hashlib.sha256()
    for text in outputs:
        for rep in json.loads(text):
            rep.pop("elapsed", None)
            h.update(json.dumps(rep, sort_keys=True).encode() + b"\n")
    h.update(json.dumps(sorted(checks.items())).encode() + b"\n")
    for line in _exact_results(n):
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def stored_digest(workload: str) -> Optional[str]:
    return json.loads(DIGESTS.read_text()).get(workload)
