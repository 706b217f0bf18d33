"""High-precision closed forms of the column tails, shared by the tests.

Both run at the caller's mpmath precision and share no code with the
library: ``mp_moment_tails`` gives the closed-form bound on each log-moment
tail of one exponent, ``mp_tail_sq`` the whole squared closed form that
``tail_bounds`` rounds outward.
"""

import mpmath


def mp_moment_tails(s, n, j_max):
    """[T_0, ..., T_n], T_i a closed-form upper bound on sum_(k>J) (ln k)^i k^-s, s > 1.

    T_0 is the Euler-Maclaurin tail at N = J + 1 with its remainder bound,
    N^(1-s)/(s-1) + N^-s/2 + s N^(-s-1)/12 + s (s+1) (s+2) N^(-s-3)/720.
    For i >= 1, T_i is the integral from J + 1, i! Q_i(z) / (s-1)^(i+1)
    with z = (s-1) ln(J+1) and Q_i(z) = e^-z sum_(m<=i) z^m/m!, plus the
    summand's largest value from column J + 1 on, t^i e^-st at
    t = max(i/s, ln(J+1)).  Q_i is summed upward, one Poisson term an
    order, so every order up to n costs O(n) in all.
    """
    s = mpmath.mpf(s)
    big_n = mpmath.mpf(j_max + 1)
    tails = [
        big_n ** (1 - s) / (s - 1) + big_n**-s / 2 + s * big_n ** (-s - 1) / 12
        + s * (s + 1) * (s + 2) / 720 * big_n ** (-s - 3)
    ]
    log_n = mpmath.log(big_n)
    z = (s - 1) * log_n
    poisson = q = mpmath.exp(-z)  # e^-z z^i / i! and Q_i
    scale = 1 / (s - 1)  # i! / (s-1)^(i+1)
    for i in range(1, n + 1):
        poisson *= z / i
        q += poisson
        scale *= i / (s - 1)
        t = max(i / s, log_n)
        tails.append(scale * q + t**i * mpmath.exp(-s * t))
    return tails


def mp_tail_sq(sigma1, c, i_max, j_max):
    """(low, high) around tail_bounds' squared closed form with every row
    I + 1 rows deep, at |c2| = c: row 0's Euler-Maclaurin tail, for
    1 <= i <= I the column tail C(2i, i) r^2i Q_2i(z) / (s-1), r = c / (s-1),
    z = (s-1) ln(J+1), by mpmath.gammainc, plus the largest summand from
    column J + 1 on, c^2i t^2i e^-st / (i!)^2, t = max(2i/s, ln(J+1)), and
    the rows from I + 1 over all columns, (b_k + Pi_k) / (1 - rho^2) at
    k = I + 1: b_k = C(2k, k) r^2k / (s-1), rho = 2r, s = 2 sigma1, and
    Pi_k the summand's peak (2kc / (se))^2k / (k!)^2, or, where
    2k/s < ln 2, the smaller of it and 2^-(s - 2c) min((c ln 2)^k / k!, 1)^2.
    Each column tail of row i is at most the whole of row i, so this is the
    least closed form over all row cuts k_t.  Past the first row i whose
    row piece is below 1e-40 times the sum, the remaining rows are
    bracketed by the row piece from i instead.
    """
    s = 2 * mpmath.mpf(sigma1)
    c = mpmath.mpf(c)
    total = mp_moment_tails(s, 0, j_max)[0]
    if c == 0:
        return total, total
    r = c / (s - 1)
    rho_sq = (2 * r) ** 2

    def row(k):
        b = mpmath.binomial(2 * k, k) * r ** (2 * k) / (s - 1)
        peak = (2 * k * c / (s * mpmath.e)) ** (2 * k) / mpmath.factorial(k) ** 2
        if 2 * k < s * mpmath.log(2):
            y = c * mpmath.log(2)
            lead = min(k * mpmath.log(y) - mpmath.loggamma(k + 1), 0)
            peak = min(peak, mpmath.exp(2 * lead - (s - 2 * c) * mpmath.log(2)))
        return (b + peak) / (1 - rho_sq)

    z, log_n = (s - 1) * mpmath.log(j_max + 1), mpmath.log(j_max + 1)
    for i in range(1, i_max + 1):
        if row(i) < mpmath.mpf(10) ** -40 * total:
            return total + row(i_max + 1), total + row(i)
        total += (
            mpmath.binomial(2 * i, i) * r ** (2 * i) * mpmath.gammainc(2 * i + 1, z, regularized=True) / (s - 1)
        )
        t = max(2 * i / s, log_n)
        total += (c * t) ** (2 * i) * mpmath.exp(-s * t) / mpmath.factorial(i) ** 2
    return total + row(i_max + 1), total + row(i_max + 1)
