"""Reference implementations the tests check the package against.

Each re-derives a result through a code path the package does not use: a
shift-XOR-reduce multiplier against the table-based one, a hash summed
power by power with that multiplier against the log-domain hash tables, and
a Pascal-recurrence binomial CDF against the radius computation.
"""

from fractions import Fraction

from algwatchdog.channel import radius_for_epsilon


def slow_mul(a: int, b: int, poly: int) -> int:
    """Reference field multiply: shift-XOR carry-less product, then long-division reduction."""
    prod = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            prod ^= a << i
    deg = poly.bit_length() - 1
    for shift in range(prod.bit_length() - 1 - deg, -1, -1):
        if (prod >> (shift + deg)) & 1:
            prod ^= poly << shift
    return prod


def slow_hash(coeffs, x: int, poly: int, width: int) -> int:
    """Reference hash: the low `width` bits of a_0 + a_1 x + ... + a_d x^d by `slow_mul`; x^0 = 1, also at x = 0."""
    acc, power = 0, 1
    for c in coeffs:
        acc ^= slow_mul(c, power, poly)
        power = slow_mul(power, x, poly)
    return acc & ((1 << width) - 1)


def binomial_cdf_pascal(n: int, r: int, p: float) -> Fraction:
    """Exact binomial CDF via iterative distribution convolution (no math.comb)."""
    pf = Fraction(p)
    dist = [Fraction(1)]
    for _ in range(n):
        nxt = [Fraction(0)] * (len(dist) + 1)
        for k, mass in enumerate(dist):
            nxt[k] += mass * (1 - pf)
            nxt[k + 1] += mass * pf
        dist = nxt
    return sum(dist[: r + 1], start=Fraction(0))


def radius_pascal(n: int, p: float, eps: float) -> int:
    """Smallest r whose Pascal-recurrence CDF reaches 1 - eps."""
    target = 1 - Fraction(eps)
    return next(r for r in range(n + 1) if binomial_cdf_pascal(n, r, p) >= target)


def radius_oracle_suite() -> None:
    for n in (4, 8, 12, 16):
        for p in (0.01, 0.05, 0.1, 0.2):
            for eps in (0.001, 0.01, 0.05):
                got = radius_for_epsilon(n, p, eps).r
                want = radius_pascal(n, p, eps)
                assert got == want, f"radius mismatch n={n} p={p} eps={eps}: {got} != {want}"
