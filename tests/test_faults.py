"""The fault table: for each input of a verdict, a fault and the
independent check that must catch it.

A fault is one ``monkeypatch`` of one private name of the package; a
function's replacement is bound wherever a loaded package or test module
binds the original, so a check that imported the name sees the fault too.
An independent check is an oracle, a reference computation or a
hand-derived value.  Pins (hex literals, ``_VERDICT_REPINS``,
``perfbench/reference.json``) only say that a value moved, so they never
count.  Each row runs its check on the code as it is, where it must pass,
and under the fault, where it must fail.

A fault that no independent check catches yet is a strict xfail naming the
ROADMAP item that closes it; when that item lands the row passes, and its
marker goes.
"""

import functools
import math
import sys

import numpy as np
import pytest

import test_acceptance
import test_bounds
import test_closed_form
import test_distributions
import test_transforms
from hcbounds import bounds, conditional, distributions, transforms
from hcbounds.hypotheses import HypothesisClass, HypothesisSpec
from hcbounds.losses import LossFamily, ZeroOneLoss


def _inject(monkeypatch, module, name, value):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, value)
    if callable(original):
        for key, mod in list(sys.modules.items()):
            if key.startswith(("hcbounds", "test_")) and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, value)


def _gamma_times(factor, family=None):
    """Gamma, as ``select_transform`` returns it, times factor (for one loss
    family only, when given)."""

    def inject(monkeypatch):
        real = transforms.select_transform

        def select(loss, spec, massart=None, eps=0.0):
            forward, inverse = real(loss, spec, massart, eps)
            if family in (None, loss.family):
                inverse = test_transforms.scaled(inverse, factor)
            return forward, inverse

        _inject(monkeypatch, transforms, "select_transform", select)

    return inject


def _cstar_times(factor, zero_one):
    """E[C*] of the zero-one loss, or of every margin loss, times factor."""

    def inject(monkeypatch):
        real = bounds._expect_min_conditional

        def expect(loss, spec, dist):
            value, err = real(loss, spec, dist)
            return (factor * value if isinstance(loss, ZeroOneLoss) == zero_one else value), err

        _inject(monkeypatch, bounds, "_expect_min_conditional", expect)

    return inject


def _margin_risk_times_1_plus_1e_6(monkeypatch):
    real = bounds._margin_risk

    def margin_risk(loss, dist, hs, gamma):
        value, err = real(loss, dist, hs, gamma)
        return value * (1.0 + 1e-6), err

    _inject(monkeypatch, bounds, "_margin_risk", margin_risk)


def _mc_merge_without_delta(monkeypatch):
    """``_mc_risks`` with the blocks' M2 summed, the delta term of Chan,
    Golub and LeVeque's merge left out."""

    def mc_risks(losses, h, dist, mode, gamma):
        def block_stats(start, xs, ys, spare):
            err, arg = bounds._score_kernel(h.w, h.b, xs, ys, gamma, out=xs)
            return [(xs.size, *bounds._mean_m2(bounds._loss_values(loss, err, arg, spare[0]))) for loss in losses]

        out = []
        for by_block in zip(*distributions._map_sample_blocks(dist, mode.n, mode.seed, block_stats)):
            n, mean, m2 = by_block[0]
            for nb, mean_b, m2_b in by_block[1:]:
                n, mean, m2 = n + nb, mean + (mean_b - mean) * nb / (n + nb), m2 + m2_b
            out.append((mean, math.sqrt(m2 / (n - 1)) / math.sqrt(n)))
        return out

    _inject(monkeypatch, bounds, "_mc_risks", mc_risks)


def _holds_at_30_stderr(monkeypatch):
    _inject(monkeypatch, bounds, "_holds", lambda lhs, rhs, se_lhs, se_rhs: lhs <= rhs + 30 * (se_lhs + se_rhs) + 1e-9)


def _relaxed_slope_2_2(monkeypatch):
    """The relaxed logistic/exponential inverse's slope 2/tanh(c) as 2.2/tanh(c)."""
    real = transforms.transform_inverse

    def inverse(loss, spec):
        pt = real(loss, spec)
        if not pt.relaxed:
            return pt
        power, affine = pt.segments
        return transforms.replace(pt, segments=(power, transforms._affine(1.1 * affine.coefficients[0])))

    _inject(monkeypatch, transforms, "transform_inverse", inverse)


def _margin_scale_times_1_05(monkeypatch):
    real = transforms._forward_pieces
    _inject(monkeypatch, transforms, "_forward_pieces", lambda loss, c: real(loss, 1.05 * c))


def _positions_from_the_pick_stream(monkeypatch):
    """Each block's positions read the doubles that picked its components
    (an n-draw sample within one chunk reads its position stream at n + a)."""
    real, n = distributions._philox_at, test_distributions.KS_N
    _inject(monkeypatch, distributions, "_philox_at", lambda seed, chunk, offset: real(seed, chunk, offset % n))


def _no_side_neighbours(monkeypatch):
    monkeypatch.setattr(bounds, "_SIDE_ULPS", 0)


def _cell_bound_without_reflection(monkeypatch):
    """The margin-loss search's cell bound as R(centre) - err, which holds
    only where the centre is the cell's least risk."""

    def bound(loss, dist, gamma, score, wl, wh, bl, bh):
        centre, err = score(0.5 * (wl + wh), 0.5 * (bl + bh))
        return centre - err

    _inject(monkeypatch, bounds, "_cell_bound", bound)


def _margin_risk_at_the_least_margin(monkeypatch):
    """``_margin_risk`` at each point's least margin over the hypotheses, not
    the largest: a single hypothesis's risk is unchanged, but the rho-margin
    search's corner bound on a cell exceeds the cell's least risk."""

    def margin_risk(loss, dist, hs, gamma):
        def losses(xs, label):
            margins = (bounds._score_kernel(h.w, h.b, xs, label, gamma)[1] for h in hs)
            return bounds.eval_margin_loss(loss, functools.reduce(np.minimum, margins))

        atoms = sum(c.weight * float(losses(c.law.x, c.label)) for c in dist.atoms())
        return distributions._integrate_continuous(
            dist.continuous(), lambda c: lambda xs: losses(xs, c.label) * c.law.pdf(xs),
            lambda c: test_closed_form.kink_points(loss, hs, gamma), atoms,
        )

    _inject(monkeypatch, bounds, "_margin_risk", margin_risk)


def _quadrature_without_kinks(monkeypatch):
    real = distributions._gauss_kronrod
    _inject(monkeypatch, distributions, "_gauss_kronrod", lambda f, a, b, points=(): real(f, a, b))


def _every_component_label_pure(monkeypatch):
    """No continuous component meets another, so eta is 0 or 1 on each and
    E[C*_01] is its atoms' part alone."""
    _inject(monkeypatch, distributions, "_meeting", lambda dist, c: [c])


def _pure_lines_without_the_flat_piece(monkeypatch):
    """The worst-case route's best score as W*|x| - gamma*W + B, its (0, B)
    line dropped, so it falls short of B where |x| < gamma."""
    real = bounds._pure_lines

    def lines(loss, spec):
        out = real(loss, spec)
        return out[:2] if spec.adversarial and out else out

    _inject(monkeypatch, bounds, "_pure_lines", lines)


def _refined_panels_drop_their_last_quarter(monkeypatch):
    real = distributions._refine

    def refine(lo, hi):
        lo, hi = real(lo, hi)
        return lo[: 3 * lo.size // 4], hi[: 3 * hi.size // 4]

    _inject(monkeypatch, distributions, "_refine", refine)


def _line_means_without_the_component_scale(monkeypatch):
    """The logistic and sigmoid risks' first panels split where lines cross
    only, as before each truncated normal added splits at its own scale."""
    monkeypatch.setattr(distributions.TruncNormal, "_scale_splits", property(lambda law: []))


def _narrow_components_of_both_losses():
    case = test_bounds.TestNarrowComponents()
    for loss in (test_bounds.logistic(), test_bounds.sigmoid(2.0)):
        case.test_risk_matches_a_z_scale_midpoint_rule(loss, 2e-3)


def _sign_cells_on_a_fixed_grid(monkeypatch):
    """``_positive_cells`` read off 10,001 evenly spaced points, as the
    Massart check once sampled [-1, 1]: a cell between two points is settled
    when the least sum's sign agrees at both, unsettled otherwise."""

    def cells(sums, lo, hi):
        xs = np.linspace(lo, hi, 10001)
        least = np.min([sum((a * law.pdf(xs + d) for a, law, d in terms), np.zeros(xs.size)) for terms in sums], axis=0)
        pos = (least > 0.0).astype(float)
        return xs[:-1], xs[1:], np.where(pos[:-1] == pos[1:], pos[1:], np.nan)

    _inject(monkeypatch, bounds, "_positive_cells", cells)


def _gauss_kronrod_exact_values():
    case = test_distributions.TestGaussKronrod()
    case.test_narrow_normal_mass()
    case.test_kinks_and_jumps(lambda x: np.abs(x - 1 / 3), 10 / 9, ())


def _threshold_scan_at_the_atom_on_the_support_end():
    spec = HypothesisSpec(HypothesisClass.LINEAR, W=1.0, B=1.0)
    test_bounds.TestZeroOneThresholdSearch._check(spec, test_bounds._ATOM_AT_SUPPORT_END)


def _threshold_scan_at_two_close_turns():
    spec = HypothesisSpec(HypothesisClass.LINEAR, W=1.0, B=1.0)
    test_bounds.TestZeroOneThresholdSearch._check(spec, test_bounds._TWO_CLOSE_TURNS)


def _narrow_massart_band_and_two_close_turns():
    test_bounds.TestAssembleBound().test_massart_check_sees_a_narrow_band()
    _threshold_scan_at_two_close_turns()


def _min_risk_nan_for_logistic(monkeypatch):
    """The closed-form minimal conditional risk NaN for the logistic loss."""
    real = conditional._min_risk

    def min_risk(loss, spec):
        f = real(loss, spec)
        return (lambda x_abs, t: f(x_abs, t) * math.nan) if loss.family is LossFamily.LOGISTIC else f

    _inject(monkeypatch, conditional, "_min_risk", min_risk)


def _one_cutoff_skewed(monkeypatch):
    """The sampler's second cumulative weight, where it is interior, lower by
    5e-3: its component loses that much mass to the next one.  In
    the sect7 mixtures that moves 5e-3 of the 1/16 of the atom at -1 (label
    +1) into the truncated normal after it, about 980 of ``KS_N`` draws
    (z = -8.5), while the positions off the atoms keep their laws."""
    real = distributions._component_picker

    def picker(cum):
        if len(cum) > 2:
            cum = cum.copy()
            cum[1] -= 5e-3
        return real(cum)

    _inject(monkeypatch, distributions, "_component_picker", picker)


def _atom_frequencies_of_the_sect7_mixtures():
    for name in ("nonadv", "adv"):
        test_distributions.TestSamplerLaw().test_atom_frequencies_match_the_weights(name)


# fault name: (injection, the independent check that must catch it)
FAULTS = {
    "gamma-x1.01": (_gamma_times(1.01), test_bounds.TestAssembleBound().test_singleton_hinge_exact),
    "gamma-x0.99": (_gamma_times(0.99), test_bounds.TestAssembleBound().test_singleton_hinge_exact),
    "zero-one-cstar-x0.99": (_cstar_times(0.99, True), test_acceptance.test_criterion_5_discrete_psi_verification),
    "surrogate-cstar-x(1+1e-6)": (
        _cstar_times(1.0 + 1e-6, False),
        lambda: [test_closed_form.test_expected_min_conditional_matches_the_closed_form(seed) for seed in range(3)],
    ),
    "margin-risk-x(1+1e-6)": (
        _margin_risk_times_1_plus_1e_6,
        lambda: [test_closed_form.test_risk_matches_the_closed_form(seed) for seed in range(3)],
    ),
    "mc-merge-without-delta": (
        _mc_merge_without_delta,
        lambda: test_bounds.TestStreamedMonteCarlo().test_matches_whole_sample_statistics(
            "nonadv", 3 * distributions._SAMPLE_BLOCK + 17
        ),
    ),
    "holds-at-30-stderr": (
        _holds_at_30_stderr, test_bounds.TestVerdictRule().test_three_standard_errors_plus_rounding
    ),
    # the slope breaks the inverse's continuity at its knot, which PiecewiseTransform refuses
    "relaxed-inverse-slope-2.2": (
        _relaxed_slope_2_2,
        lambda: [test_transforms.TestInverseTable().test_relaxed_inverse_dominates_exact(loss)
                 for loss in (test_transforms.logistic(), test_transforms.exponential())],
    ),
    "margin-scale-x1.05": (
        _margin_scale_times_1_05, test_transforms.TestAdversarialTransform().test_definitional_consistency
    ),
    "positions-from-the-pick-stream": (
        _positions_from_the_pick_stream,
        lambda: test_distributions.TestSamplerLaw().test_positions_match_the_components_cdf("nonadv"),
    ),
    "no-side-neighbours": (_no_side_neighbours, _threshold_scan_at_the_atom_on_the_support_end),
    "cell-bound-without-reflection": (
        _cell_bound_without_reflection, test_bounds.TestBestInClass().test_larger_class_is_no_worse_on_the_pool_case
    ),
    # the non-adversarial rho-margin pair catches it too, in 4x the time
    "margin-risk-at-the-least-margin": (
        _margin_risk_at_the_least_margin,
        lambda: test_bounds.TestBestInClass().test_search_is_within_tol_of_a_grid(test_bounds.rho_margin(0.5), True),
    ),
    "every-component-label-pure": (
        _every_component_label_pure, test_distributions.TestExpectation().test_min_eta_matches_a_dense_rule
    ),
    "refined-panels-drop-their-last-quarter": (_refined_panels_drop_their_last_quarter, _gauss_kronrod_exact_values),
    # worst-case sigmoid (seed 2, which integrates) and hinge (3, closed form) each catch it alone
    "e-cstar-closed-form-drops-the-flat-piece": (
        _pure_lines_without_the_flat_piece,
        lambda: [test_closed_form.test_closed_form_e_cstar_matches_the_quadrature(seed) for seed in (2, 3)],
    ),
    # the Massart witness and the threshold witness each catch it alone
    "sign-changes-on-a-fixed-grid": (_sign_cells_on_a_fixed_grid, _narrow_massart_band_and_two_close_turns),
    # the logistic and the sigmoid witness each catch it alone
    "line-means-first-panels-without-the-component-scale": (
        _line_means_without_the_component_scale, _narrow_components_of_both_losses
    ),
    # a NaN deviation fails its oracle row
    "min-risk-nan-for-logistic": (_min_risk_nan_for_logistic, test_acceptance.test_criterion_3_oracle_equivalence),
    # the positions' KS test misses it: the mass moves between an atom and a truncated normal
    "one-cutoff-skewed": (_one_cutoff_skewed, _atom_frequencies_of_the_sect7_mixtures),
    # no independent check catches these yet
    "gamma-x1.01-logistic": (
        _gamma_times(1.01, LossFamily.LOGISTIC), test_bounds.TestAssembleBound().test_holds_on_random_exact_instances
    ),
    "e-cstar-kink": (_quadrature_without_kinks, test_bounds.test_expected_min_conditional_sees_the_score_bound_kink),
}
UNCAUGHT = {
    "gamma-x1.01-logistic": "every logistic-route check is one-sided or a pin; the tightness witnesses "
    "of ROADMAP item 9 catch it",
    "e-cstar-kink": "rho-margin's standard route is the one E[C*] left on the quadrature, which passes no kink "
    "points, so the check fails with or without the fault; ROADMAP items 3 and 4 close it",
}


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=UNCAUGHT[name]))
     if name in UNCAUGHT else name for name in FAULTS],
)
def test_fault_is_caught(monkeypatch, name):
    inject, check = FAULTS[name]
    check()  # passes on the code as it is
    inject(monkeypatch)
    try:
        check()
    except (AssertionError, ValueError):
        return
    raise AssertionError(f"the check misses the fault {name}")
