"""Continuous-spectrum radial profiles via the Gauss hypergeometric series.

The radial equation

    (1 + v^2) f'' + (1 - 2 mu) v f' + (mu^2 + nu^2) f = lam f

reduces, after substituting z = -v^2, to the hypergeometric equation with
c = 1/2, a + b = -mu and ab = (mu^2 - sigma)/4 where sigma = lam - nu^2,
so a, b = (-mu -/+ sqrt(sigma))/2; the second branch is the usual
z^(1/2)-type solution with third parameter 3/2 and an odd |v| prefactor.
Evaluation uses the defining series inside |v| < 1 (`hyp2f1`); certification
is a numeric residual of the radial equation built from the exact series
derivative d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z).  A series that
exhausts its term budget raises SeriesNotConvergedError, a solver
limitation.
"""

from __future__ import annotations

import cmath

from .family import SeriesNotConvergedError

HYP2F1_TOL = 1e-15  # stop once a term is below this fraction of 1 + |partial sum|
HYP2F1_MAX_TERMS = 20000


def hyp2f1(a: complex, b: complex, c: complex, zs):
    """Gauss hypergeometric series sum_k (a)_k (b)_k / ((c)_k k!) z^k at each z, |z| < 1."""
    a, b, c = complex(a), complex(b), complex(c)
    out = []
    for z in map(complex, zs):
        if abs(z) >= 1.0:
            raise ValueError(f"series argument outside the unit disk: |z|={abs(z):.3f}")
        term = complex(1.0)
        total = complex(1.0)
        k = 0
        while k < HYP2F1_MAX_TERMS:
            term = term * (a + k) * (b + k) / ((c + k) * (k + 1)) * z
            total += term
            k += 1
            if abs(term) <= HYP2F1_TOL * (1.0 + abs(total)):
                break
        else:
            raise SeriesNotConvergedError(
                f"hypergeometric series did not converge in {HYP2F1_MAX_TERMS} terms at z={z}")
        out.append(total)
    return out


class RadialProfile:
    """f(v) = A * F_even(-v^2) + B * |v| * F_odd(-v^2) on |v| < 1.

    The odd branch uses |v|; its certification is restricted to v > 0 where
    the prefactor is smooth.
    """

    def __init__(self, mu: float, nu: float, lam: float, amp_even: complex = 1.0,
                 amp_odd: complex = 0.0):
        self.mu = float(mu)
        self.nu = float(nu)
        self.lam = float(lam)
        self.sigma = self.lam - self.nu**2
        self.amp_even = complex(amp_even)
        self.amp_odd = complex(amp_odd)
        root = cmath.sqrt(complex(self.sigma))
        # (a, b) of the even branch; the odd branch shifts both by 1/2
        self.a_even = (-self.mu - root) / 2
        self.b_even = (-self.mu + root) / 2

    def _series(self, a, b, c, vs, dshift: int):
        """(d/dz)^dshift of 2F1 evaluated at z = -v^2, with factor chain."""
        pre = 1.0 + 0j
        for k in range(dshift):
            pre *= (a + k) * (b + k) / (c + k)
        zs = [-(v * v) for v in vs]
        vals = hyp2f1(a + dshift, b + dshift, c + dshift, zs)
        return [pre * w for w in vals]

    def values(self, vs) -> list:
        vs = [float(v) for v in vs]
        a, b = self.a_even, self.b_even
        even = self._series(a, b, 0.5, vs, 0)
        out = [self.amp_even * e for e in even]
        if self.amp_odd != 0:
            odd = self._series(a + 0.5, b + 0.5, 1.5, vs, 0)
            out = [o + self.amp_odd * abs(v) * w for o, w, v in zip(out, odd, vs)]
        return out

    def derivatives(self, vs) -> tuple:
        """(f, f', f'') from exact series derivatives (chain rule in z=-v^2)."""
        vs = [float(v) for v in vs]
        a, b = self.a_even, self.b_even
        f0 = self._series(a, b, 0.5, vs, 0)
        f1 = self._series(a, b, 0.5, vs, 1)
        f2 = self._series(a, b, 0.5, vs, 2)
        vals, d1, d2 = [], [], []
        for v, a0, a1, a2 in zip(vs, f0, f1, f2):
            vals.append(self.amp_even * a0)
            d1.append(self.amp_even * (-2 * v) * a1)
            d2.append(self.amp_even * (4 * v * v * a2 - 2 * a1))
        if self.amp_odd != 0:
            g0 = self._series(a + 0.5, b + 0.5, 1.5, vs, 0)
            g1 = self._series(a + 0.5, b + 0.5, 1.5, vs, 1)
            g2 = self._series(a + 0.5, b + 0.5, 1.5, vs, 2)
            for j, v in enumerate(vs):
                if v <= 0:
                    raise ValueError("odd branch derivatives need v > 0")
                # d/dv [v g(-v^2)] = g - 2 v^2 g', etc.
                vals[j] += self.amp_odd * v * g0[j]
                d1[j] += self.amp_odd * (g0[j] - 2 * v * v * g1[j])
                d2[j] += self.amp_odd * (-6 * v * g1[j] + 4 * v**3 * g2[j])
        return vals, d1, d2

    def residuals(self, vs) -> tuple:
        """(residuals, values) at vs, from one set of series sums: the residual
        (1+v^2) f'' + (1-2 mu) v f' + (mu^2+nu^2-lam) f of the radial equation,
        and f itself."""
        f, d1, d2 = self.derivatives(vs)
        out = []
        for v, a0, a1, a2 in zip(vs, f, d1, d2):
            out.append(
                (1 + v * v) * a2
                + (1 - 2 * self.mu) * v * a1
                + (self.mu**2 + self.nu**2 - self.lam) * a0
            )
        return out, f
