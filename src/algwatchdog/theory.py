"""Closed-form predictors for the watchdog's two error probabilities.

All formulas are evaluated in exact rational arithmetic (integer binomial
sums over powers of two) and returned as Fractions; callers convert to
float at the edge.

Misdetection.  Watcher i passes a corrupted relay when some word w of its
peer candidate set maps, through the coding map, into its relay candidate
set.  The expected number E|S_i| of such surviving words bounds the pass
chance (Markov's inequality).  Write V_p = V(n, r_peer) and V_r = V(n,
r_relay) for the volumes of watcher i's own two balls and c_p, c_r for the
chance the true word lies inside each.  Averaged over uniform sources and
coefficients and a uniformly random nonzero relay error,

    E|S_i| = 2^-h [c_p (V_r - c_r) + (V_p - c_p) c_r] / (2^n - 1)
           + 2^-2h (V_p - c_p)(V_r - c_r)(2^n - 2) / (2^n - 1)^2.

The 2^-h terms are the single-collision paths: the true peer word, whose
honest image collides with the corrupted relay word, and the peer word
x_peer + a_peer^-1 e, whose image is the corrupted word itself.  Every other
word in the peer ball needs two collisions.  Since 0 <= c <= 1 this is at
most the radius-only figure the module reports,

    beta_i <= min{1, [V_p V_r + 2^h (V_p + V_r)] / (2^2h (2^n - 1))},

an upper estimate rather than an exact probability.  It rests on two
assumptions about the hash a_0 + a_1 x + ... + a_d x^d:

* one collision between distinct words has probability exactly 2^-h, which
  holds for any degree d >= 1 because a_1 is uniform;
* collisions on two distinct pairs are independent (2^-2h), which holds for
  d >= 2 outside an O(2^-n) set of degenerate pairs, and fails for d <= 1.

TheoryParams carries no degree, so the figure is stated for d >= 2 only.
It is also defined only for the random_nonzero_error adversary; a relay
that chooses its error can do better than the average.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import ball_volume


@dataclass(frozen=True)
class TheoryParams:
    n: int
    h: int
    r12: int
    r21: int
    r31: int
    r32: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"field width {self.n} must be at least 1")
        # h = 0 (no hash at all) is allowed here: the predictors stay
        # well-defined and the degenerate case exercises the min clamp
        if not (0 <= self.h <= self.n):
            raise ValueError(f"hash width {self.h} outside [0, {self.n}]")
        for name in ("r12", "r21", "r31", "r32"):
            r = getattr(self, name)
            if not (0 <= r <= self.n):
                raise ValueError(f"{name}={r} outside [0, {self.n}]")


@dataclass(frozen=True)
class Prediction:
    gamma_bound_conservative: Fraction
    beta: Fraction
    beta_v1: Fraction
    beta_v2: Fraction


def gamma_bound(eps: float) -> Fraction:
    """The budget of one coverage event: the chance eps that one ball misses.

    Each radius is chosen so that its ball misses the true word with
    chance at most eps.  That is a per-event budget, not a bound on the
    gamma `harness.run_trials` reports: the harness counts an honest relay
    as flagged when either watcher rejects it, and each watcher needs both
    of its balls to cover, so four coverage events are involved.  At n=10,
    h=8, d=3, p=0.15 on every link and eps=0.01 (honest relay, 10,000
    trials, seed 31) the reported gamma is 0.0417, Wilson interval
    [0.0380, 0.0458], where 1 - (product of the four coverages) = 0.0389.
    """
    if not (0 <= eps < 1):
        raise ValueError(f"epsilon {eps} outside [0, 1)")
    return Fraction(eps)


def gamma_bound_conservative(eps: float) -> Fraction:
    """Union of one watcher's two per-event budgets: min(1, 2*eps).

    A watcher needs both its candidate sets to cover the true words, so
    2*eps bounds the chance that one watcher's balls miss.  It is still a
    budget for one watcher's two events, not a bound on the reported gamma,
    which counts a rejection by either watcher; see `gamma_bound`.
    """
    return min(Fraction(1), 2 * gamma_bound(eps))


def _watcher_bound(n: int, h: int, v_peer: int, v_relay: int) -> Fraction:
    """Radius-only bound on one watcher's E|S|, clamped to 1.

    v_peer and v_relay are the volumes of the watcher's peer and relay
    balls.  The two single-collision paths weigh 2^-h each and land in their
    ball with chance at most v_relay / (2^n - 1) and v_peer / (2^n - 1); the
    at most v_peer two-collision paths weigh 2^-2h each and land with chance
    at most v_relay / (2^n - 1).  See the module docstring.
    """
    expected = Fraction(
        v_peer * v_relay + ((v_peer + v_relay) << h),
        ((1 << n) - 1) << (2 * h),
    )
    return min(Fraction(1), expected)


def misdetection_v1(tp: TheoryParams) -> Fraction:
    """Upper estimate of the chance watcher 1 lets a corrupted relay through.

    Watcher 1 overhears its peer on the 2->1 link and the relay on the 3->1
    link, so only r21 and r31 enter; r12 does not.
    """
    return _watcher_bound(tp.n, tp.h, ball_volume(tp.n, tp.r21), ball_volume(tp.n, tp.r31))


def misdetection_v2(tp: TheoryParams) -> Fraction:
    """Watcher 2's figure: the same bound on its own links, 1->2 and 3->2."""
    return _watcher_bound(tp.n, tp.h, ball_volume(tp.n, tp.r12), ball_volume(tp.n, tp.r32))


def predicted_beta(tp: TheoryParams) -> Fraction:
    """Upper estimate of the joint misdetection rate: min over the two watchers.

    A corrupted relay passes only if it passes both watchers, so the joint
    rate is at most either watcher's rate.
    """
    return min(misdetection_v1(tp), misdetection_v2(tp))


def predicted_beta_no_overhear(n: int, h: int, r31: int, r32: int) -> Fraction:
    """Misdetection when the two sources cannot overhear each other.

    A useless source-to-source link forces the peer radius to n, so the
    peer ball is the whole field (V_p = 2^n) and each watcher's figure
    becomes [2^n V_r + 2^h (2^n + V_r)] / (4^h (2^n - 1)) ~ 2^-h + V_r / 4^h,
    with V_r the volume of its relay ball; the smaller of the two has
    relay radius min(r31, r32).
    """
    TheoryParams(n=n, h=h, r12=n, r21=n, r31=r31, r32=r32)  # validates the ranges
    return _watcher_bound(n, h, 1 << n, ball_volume(n, min(r31, r32)))


def predict(tp: TheoryParams, eps: float) -> Prediction:
    """Every predictor for one point, each watcher's figure computed once."""
    v1, v2 = misdetection_v1(tp), misdetection_v2(tp)
    return Prediction(gamma_bound_conservative=gamma_bound_conservative(eps), beta=min(v1, v2), beta_v1=v1, beta_v2=v2)
