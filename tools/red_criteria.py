"""Reference numbers for the two acceptance criteria that are red by design.

Usage::

    python tools/red_criteria.py [CHECKOUT]

CHECKOUT defaults to the checkout holding this script; its ``src/`` is put
first on the import path.  Only the package's public names are used.

Criterion 3 compares a(lam) and b(lam) of the exact ground state at N = 1000
with their semiclassical closed forms, inside a band of max(10% |p|, 0.02).
It fails near the transition at lam = -1.  The script prints the worst
deviation of a and b, in multiples of that band, at four of the failing lam
for growing N: every value falls below 1 from N = 4000 up, so the failure
is finite-size, not a defect.

Criterion 9 asks the Monte-Carlo phase variance to lie within 15% of the
prediction (xi^2 + sqrt(1-nu^2)/nu^2) / N.  The script prints, at the
criterion's three points and seed, the empirical variance over the
prediction, over the large-N least-squares variance and over the
Cramer-Rao bound.  The prediction lies below the bound, which no unbiased
estimator beats, so the first ratio cannot reach the band.  The last column
is the criterion's bias check: the mean deviation of the fitted phase over
its standard error, which the criterion bounds by 3 in magnitude.
"""

from __future__ import annotations

import os
import sys

# criterion 3: lam inside its failing range, on both sides of lam = -1
CRITERION_3_LAMBDAS = (-1.103, -1.06, -0.94, -0.88)
CRITERION_3_SIZES = (1000, 4000, 16000, 64000)
# criterion 9: its (xi^2, nu) points, fringe, atom number, shots and seed
CRITERION_9_POINTS = ((1.0, 0.9), (0.3, 0.95), (1.0, 0.6))
CRITERION_9_N_ATOMS = 1000
CRITERION_9_SHOTS = 10000
CRITERION_9_SEED = 20260823


def band_multiples(bf, n: int, lam: float) -> float:
    """Worst |exact - semiclassical| of a and b over the criterion's band."""
    pred = bf.semiclassical_ab(lam)
    _, state = bf.ground_state(bf.ModelParams(n, lam, 0.0))
    report = bf.report_from_moments(bf.compute_moments(state), n, apply_rotation=lam > 0)
    return max(
        abs(getattr(report, name) - getattr(pred, name))
        / max(0.10 * abs(getattr(pred, name)), 0.02)
        for name in ("a_param", "b_param")
    )


def criterion_3(bf) -> None:
    print("criterion 3: worst deviation of a, b in band multiples (1 = band edge)")
    print("N".rjust(7) + "".join(f"{lam:>10}" for lam in CRITERION_3_LAMBDAS))
    for n in CRITERION_3_SIZES:
        cells = [band_multiples(bf, n, lam) for lam in CRITERION_3_LAMBDAS]
        print(f"{n:>7}" + "".join(f"{c:>10.2f}" for c in cells))


def criterion_9(bf, mc) -> None:
    print("criterion 9: empirical phase variance over the reference variances")
    print(
        f"{'xi2':>5}{'nu':>6}{'/predicted':>12}{'/least-sq':>11}{'/cramer-rao':>13}"
        f"{'bias z':>9}"
    )
    n = CRITERION_9_N_ATOMS
    for xi2, nu in CRITERION_9_POINTS:
        params = bf.FringeParams(nu=nu, phi=0.2, k=1.0, n_atoms=n, n_periods=8)
        res = bf.verify_sensitivity(params, xi2, CRITERION_9_SHOTS, CRITERION_9_SEED)
        emp = res.empirical_variance
        print(
            f"{xi2:>5}{nu:>6}{emp / res.predicted_variance:>12.3f}"
            f"{emp / mc.least_squares_variance(xi2, nu, n):>11.3f}"
            f"{emp / mc.cramer_rao_variance(xi2, nu, n):>13.3f}"
            f"{res.mean_deviation / res.std_error:>+9.2f}"
        )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = os.path.abspath(
        argv[0] if argv else os.path.join(os.path.dirname(__file__), os.pardir)
    )
    sys.path.insert(0, os.path.join(checkout, "src"))
    import bellfringe as bf
    from bellfringe import fringe_mc

    criterion_3(bf)
    print()
    criterion_9(bf, fringe_mc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
