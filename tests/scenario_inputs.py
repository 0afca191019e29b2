"""Scenario inputs only the tests build.

canned_scenario expands a canned tag straight through make_scenario, a
second path beside the CLI's apply_canned copy; regime_keywords draws
make_scenario keywords inside a registry record's regime of validity.
"""

from __future__ import annotations

import math

from hypothesis import strategies as st

from lambda_mb import scenarios


def canned_scenario(tag: str):
    """(ScenarioParams, GridSpec) of a canned tag."""
    entry = dict(scenarios.CANNED[tag])
    grid = entry.pop("grid")
    return scenarios.make_scenario(**entry), grid


@st.composite
def regime_keywords(draw, name):
    """make_scenario keywords inside the scenario's regime of validity.

    nu0 in [0.5, 5] and Delta in [-2, 2] throughout.  Soliton-constant
    scenarios: omega0 in [0.2, 2], eps0 - omega0 in [0.1, 3], log a1 and
    log a3 in [-3, 3].  Dressing-constant scenarios: |c_i| in [0.2, 2] with
    either sign, and omega0 = 0 with eps0 in [0.3, 5] for the storage
    regime, or eps0 = omega0 in [0.2, 2] at the degenerate point; the
    rotating-background closed form is written for c = (0, 0, c3) and
    |k| <= 0.3.
    """
    kw = dict(nu0=draw(st.floats(0.5, 5.0)), delta=draw(st.floats(-2.0, 2.0)))
    if scenarios.REGISTRY[name].constants == "a":
        omega0 = draw(st.floats(0.2, 2.0))
        a1, a3 = (math.exp(draw(st.floats(-3.0, 3.0))) for _ in range(2))
        kw.update(omega0=omega0, eps0=omega0 + draw(st.floats(0.1, 3.0)), a=(a1, 1.0, a3))
    else:
        kw["c"] = tuple(draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.2, 2.0))
                        for _ in range(3))
        if name == "zero_background":
            kw.update(omega0=0.0, eps0=draw(st.floats(0.3, 5.0)))
        else:
            kw["omega0"] = kw["eps0"] = draw(st.floats(0.2, 2.0))
        if name == "exulton_k":
            kw.update(k=draw(st.floats(-0.3, 0.3)), c=(0.0, 0.0, kw["c"][2]))
    return kw
