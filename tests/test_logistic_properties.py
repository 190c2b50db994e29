"""Property tests of the paper's invariants on hypothesis-drawn binary
designs: the pooled, propensity-weighted and trial-only logistic estimates
and their bd and vd harmonizations, run through the replicate context that
`simulate`, `resample` and `estimate` share."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subharm import CombinedDataset, compute_design_counts
from subharm.errors import DataError, NumericalError
from subharm.glm import expit
from subharm.sim import _ReplicateContext, parse_estimator

# a NaN or an overflow warning on a drawn design fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INITIALS = ("logistic_pooled", "logistic_ipw", "logistic_rct")


def harmonized(initial, mode, overall="logistic", lam="full"):
    return parse_estimator({"kind": "harmonized", "name": f"{mode}[{initial},{overall},{lam}]",
                            "initial": initial, "overall": overall, "lambda": lam,
                            "sigma_mode": mode})


FULL = [harmonized(initial, mode)
        for initial in ("logistic_pooled", "logistic_ipw") for mode in ("bd", "vd")]
PLAIN = [parse_estimator(kind) for kind in INITIALS]
# every logistic pipeline the replicate loop runs: the plain estimates, and
# bd, vd and identity shifts at full and finite lambda onto either overall
EVERY = PLAIN + [harmonized(initial, mode, overall, lam)
                 for initial in ("logistic_pooled", "logistic_ipw")
                 for mode in ("bd", "vd", "identity")
                 for overall in ("logistic", "diff_means") for lam in ("full", 2.0)]


@st.composite
def binary_designs(draw, k_max=4, arm=(15, 40), ec=(10, 60)):
    """(treated, control and external cell sizes, covariate count, seed) of
    a binary design: K = 1..k_max subgroups, `arm` patients per trial cell
    and `ec` external controls per subgroup, with 0 or 1 covariate."""
    k = draw(st.integers(1, k_max))
    sizes = [np.array(draw(st.lists(st.integers(*bounds), min_size=k, max_size=k)))
             for bounds in (arm, arm, ec)]
    return (*sizes, draw(st.integers(0, 1)), draw(st.integers(0, 2**32 - 1)))


def make_dataset(design, rct=None, ec=None):
    """The dataset of `design`: logistic outcomes with subgroup baselines,
    effects and external distortions drawn from its seed. `rct` and `ec`
    reorder the trial and the external rows."""
    n_t, n_c, n_e, d, seed = design
    k = len(n_t)
    rng = np.random.default_rng(seed)
    mu, theta, gamma = rng.normal(0, 0.7, k), rng.normal(0.3, 0.3, k), rng.normal(0, 0.5, k)
    beta = rng.normal(0, 0.5, d)
    w_r = np.repeat(np.arange(k), n_t + n_c)
    t_r = np.concatenate([np.r_[np.ones(a, dtype=int), np.zeros(b, dtype=int)]
                          for a, b in zip(n_t, n_c)])
    w_e = np.repeat(np.arange(k), n_e)
    x_r = rng.normal(size=(len(w_r), d))
    x_e = rng.normal(0.3, 1.0, size=(len(w_e), d))
    y_r = (rng.random(len(w_r)) < expit(mu[w_r] + theta[w_r] * t_r + x_r @ beta)).astype(float)
    y_e = (rng.random(len(w_e)) < expit(mu[w_e] + gamma[w_e] + x_e @ beta)).astype(float)
    rct = np.arange(len(w_r)) if rct is None else rct
    ec = np.arange(len(w_e)) if ec is None else ec
    return CombinedDataset.from_arrays(
        y_rct=y_r[rct], t_rct=t_r[rct], w_rct=w_r[rct], y_ec=y_e[ec], w_ec=w_e[ec], k=k,
        x_rct=x_r[rct], x_ec=x_e[ec], outcome_family="binary")


def outcome(compute):
    """`compute()`, or the class of the DataError or NumericalError it
    raised, the failures the replicate loop records."""
    try:
        return compute()
    except (DataError, NumericalError) as exc:
        return type(exc)


@settings(max_examples=50, deadline=None)
@given(binary_designs())
def test_full_harmonization_matches_the_logistic_overall(design):
    ds = make_dataset(design)
    ctx = _ReplicateContext(ds, compute_design_counts(ds))
    r = outcome(lambda: ctx.overall("logistic"))
    assume(not isinstance(r, type))
    for cfg in FULL:
        v = outcome(lambda: ctx.evaluate(cfg))
        assume(isinstance(v, np.ndarray))  # a cell at the boundary refuses bd and vd
        assert abs(ctx.dc.pi @ v - r) <= 1e-12, (cfg.name, ctx.shift_mode(cfg))


@settings(max_examples=30, deadline=None)
@given(binary_designs(), st.data())
def test_row_order_changes_no_logistic_estimate(design, data):
    """Permuting the trial rows and the external rows changes only the order
    of summation: each estimate agrees to rounding, or fails the same way."""
    ds = make_dataset(design)
    rct = np.array(data.draw(st.permutations(range(ds.n_rct))), dtype=int)
    ec = np.array(data.draw(st.permutations(range(ds.n_ec))), dtype=int)
    out = []
    for d in (ds, make_dataset(design, rct, ec)):
        ctx = _ReplicateContext(d, compute_design_counts(d))
        out.append([outcome(lambda: ctx.evaluate(cfg)) for cfg in PLAIN + FULL]
                   + [outcome(lambda: ctx.overall("logistic"))])
    for got, want in zip(*out):
        if isinstance(want, type):
            assert got is want
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(binary_designs(k_max=3, arm=(1, 7), ec=(0, 11)))
def test_tiny_designs_fail_closed(design):
    """Every logistic pipeline on a design of a few patients per cell, some
    subgroups without external controls: finite values, or a DataError or
    NumericalError the replicate loop records, and no warning."""
    ds = make_dataset(design)
    ctx = _ReplicateContext(ds, compute_design_counts(ds))
    for cfg in EVERY:
        v = outcome(lambda: ctx.evaluate(cfg))
        assert isinstance(v, type) or (v.shape == (ds.k,) and np.all(np.isfinite(v))), cfg.name
    r = outcome(lambda: ctx.overall("logistic"))
    assert isinstance(r, type) or np.isfinite(r)
