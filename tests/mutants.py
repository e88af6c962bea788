"""Deliberately broken instantiations.

One corrupted copy per analysis, each wrong in a single targeted way. The
harness tests feed these through the verifiers and require a Fail verdict,
which keeps the verifiers honest: a checker that cannot catch a planted bug
is not checking anything.
"""

from dataclasses import replace

from writ.engine import COST, Base, EffectTriple, Instantiation, SemVal, SFun, as_base, spair
from writ.instantiations import (
    _join_max,
    _rec_indices,
    _size_indices,
    continuity_inst,
    cost_bounded_inst,
    cost_exact_inst,
    majorizability_inst,
    recursor,
)
from writ.signatures import OracleSpec


def overcharging_exact_inst() -> Instantiation:
    """Exact-cost analysis that bills two steps per recursion unfold."""
    inst = cost_exact_inst()
    broken = recursor(replace(COST, inc=lambda c: c + 2), _rec_indices)
    return replace(inst, func_interp={**inst.func_interp, "rec": broken})


def forgetful_continuity_inst(g: OracleSpec) -> Instantiation:
    """Continuity analysis whose effect combination loses the call's queries."""
    inst = continuity_inst(g)
    leaky = EffectTriple((), lambda c: c, lambda a, b, c: a + b)
    return replace(inst, effect=leaky)


def overclaiming_continuity_inst(g: OracleSpec) -> Instantiation:
    """Continuity analysis whose oracle logs each query and the position after it."""
    inst = continuity_inst(g)

    def alpha(n: SemVal) -> SemVal:
        k = as_base(n).value
        return spair((k, k + 1), Base(g(k)))

    return replace(inst, func_interp={**inst.func_interp, "alpha": SFun(alpha)})


def undercounting_bounded_inst() -> Instantiation:
    """Bounded-cost analysis that drops the base step of every fold round."""
    inst = cost_bounded_inst()
    broken = recursor(replace(COST, inc=lambda c: c), _size_indices, join=_join_max)
    return replace(inst, func_interp={**inst.func_interp, "fold": broken})


def shrinking_majorizability_inst() -> Instantiation:
    """Majorizability analysis whose addition comes up one short."""
    inst = majorizability_inst()
    lossy = SFun(
        lambda m: SFun(
            lambda n: spair(
                None, Base(max(0, as_base(m).value + as_base(n).value - 1))
            )
        )
    )
    return replace(inst, func_interp={**inst.func_interp, "add": lossy})
