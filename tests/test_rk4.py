"""Differential tests of the stacked ``matcore.rk4`` against the callback oracle.

``matcore.rk4`` reads the linear right-hand side as the stack of L at the
2n + 1 stage times; ``rk4_oracle.rk4`` calls back for L(t) @ v at every
stage.  Both run the same classical RK4, so they agree up to the rounding
of the stage times.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkls_rates import generator as g
from gkls_rates import matcore, witness

import rk4_oracle

RATE_KINDS = ("sin", "tanh", "exp", "d3")


def time_dependent_case(kind, seed):
    """Time-dependent qubit with one rate template, or d = 3 with random canonical channels."""
    rng = np.random.default_rng(seed)

    def rate():
        a, b, w = rng.uniform(0.2, 1.2), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 3.0)
        template = {"sin": "{a:.6g} + {b:.6g}*sin({w:.6g}*t)",
                    "tanh": "{a:.6g} + {b:.6g}*tanh({w:.6g}*t)",
                    "exp": "{a:.6g} + {b:.6g}*exp(-{w:.6g}*t)"}
        return template.get(kind, template["sin"]).format(a=a, b=b, w=w)

    if kind != "d3":
        return witness.qubit_generator(rate(), rate(), rate(), omega=rng.uniform(0.0, 1.0))
    base = g.random_cp(3, int(rng.integers(1, 9)), seed=seed)
    return g.build(base.hamiltonian, [(rate(), op) for op in base.ops])


@settings(max_examples=200)
@given(
    kind=st.sampled_from(RATE_KINDS),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(0.0, 2.0),
    b=st.floats(0.0, 2.0),  # b < a runs backward in time; t >= 0 keeps exp(-w t) of order one
    n=st.integers(1, 16),
)
def test_stacked_rk4_matches_callback_oracle(kind, seed, a, b, n):
    gen = time_dependent_case(kind, seed)
    parts = g.superop_parts(gen)
    rng = np.random.default_rng(seed)
    dd = gen.dim * gen.dim
    v = rng.standard_normal((dd, 2)) + 1j * rng.standard_normal((dd, 2))
    stacked = matcore.rk4(parts.at(np.linspace(a, b, 2 * n + 1)), v, (b - a) / n)
    expected = rk4_oracle.rk4(lambda t, x: parts.at(t) @ x, v, a, b, n)
    assert np.linalg.norm(stacked - expected) <= 1e-12 * max(1.0, np.linalg.norm(v))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_flow_in_stacks_matches_callback_oracle(sign):
    parts = g.superop_parts(time_dependent_case("d3", 7))
    v = np.eye(9, dtype=complex)
    n = 150  # three stacks of at most 64 steps
    got = parts.flow(v, 0.3, 1.7, n, sign)
    expected = rk4_oracle.rk4(lambda t, x: sign * (parts.at(t) @ x), v, 0.3, 1.7, n)
    assert np.linalg.norm(got - expected) <= 1e-12 * max(1.0, np.linalg.norm(v))

