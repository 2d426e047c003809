"""Reference implementations the tests check the package against.

Each re-derives a result through a code path the package does not use: a
shift-XOR-reduce multiplier against the table-based one, the field's
exp/log tables walked one power at a time with that multiplier against the
grid the package builds them on, a hash summed power by power with that
multiplier against the log-domain hash tables, a Pascal-recurrence binomial
CDF against the radius computation, a report's fields rounded by a copy of
the report's rule and written by `json.dumps` against the report writers,
the fields' leaves, walked by key, against the CSV columns, and both
detection rules, applied to one observation by a scan of the whole field,
against the detection kernels and the errors `protocol.best_errors` chooses.
`stream_bytes` reads a generator's next outputs as the draw step reads a
trial's noise stream, for tests that feed them to the mask rule.
"""

from fractions import Fraction

import numpy as np

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


def tables_by_steps(n: int, poly: int):
    """The field's exp/log tables as `gf2n._tables` lays them out, walking each candidate g's powers by `slow_mul`.

    g is the smallest word >= 2 whose powers visit every nonzero word before
    returning to 1; log[0] is the sentinel 2 * 2^n, and exp repeats its
    cycle once and is zero-padded to index 4 * 2^n.
    """
    size = 1 << n
    for g in range(2, size):
        exp = np.zeros(4 * size + 1, dtype=np.int64)
        log = np.zeros(size, dtype=np.int64)
        acc = 1
        for i in range(size - 1):
            exp[i] = acc
            log[acc] = i
            acc = slow_mul(acc, g, poly)
            if acc == 1:
                break
        if i == size - 2 and acc == 1:
            exp[size - 1 : 2 * (size - 1)] = exp[: size - 1]
            log[0] = 2 * size
            return exp, log
    raise ValueError(f"no primitive element for 0b{poly:b}")


def stream_bytes(rng, words: int) -> bytes:
    """The next `words` 32-bit outputs of rng's MT19937 stream, in order, as little-endian bytes.

    One getrandbits(32 * words) call reads them: it fills its result one
    output per 32 bits, starting from the least significant word, as the
    harness's draw step reads a trial's noise stream.
    """
    return rng.getrandbits(32 * words).to_bytes(4 * words, "little")


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


def rounded(obj):
    """A fresh copy of a report's fields, each float to 12 significant digits and each tuple a list."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [rounded(value) for value in obj]
    return obj


def json_leaves(obj, path=()):
    """(dotted path, value) for each leaf of a JSON document, in its key order."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from json_leaves(value, (*path, key))
    else:
        yield ".".join(path), obj


def coded_images(obs) -> list[int]:
    """a_own*own + a_peer*x for every word x of an `Observation`'s field, indexed by x.

    a_peer*x is the XOR of the `slow_mul` products a_peer*2^i over the bits i of x: multiplying is linear over GF(2).
    """
    poly = obs.hf.spec.reduction_poly
    images = [slow_mul(obs.own_coeff.value, obs.own_value.value, poly)]
    for i in range(obs.n):
        term = slow_mul(obs.peer_coeff.value, 1 << i, poly)
        images += [y ^ term for y in images]
    return images


def survivors_by_scan(obs, r_peer: int, r_relay: int) -> int:
    """The algebraic rule's survivor count for an `Observation`, by a scan of the whole field.

    A survivor is a word x with the peer's hash within r_peer of the overheard peer payload whose image
    (`coded_images`) has the relay's hash within r_relay of the overheard relay payload.  Hashes are read from
    obs.hf.table, the kernels' input.
    """
    table = obs.hf.table.tolist()
    return sum(
        table[x] == obs.peer_hash and (x ^ obs.noisy_peer).bit_count() <= r_peer
        and table[y] == obs.relay_hash and (y ^ obs.noisy_relay).bit_count() <= r_relay
        for x, y in enumerate(coded_images(obs))
    )


def path_sum_by_scan(obs) -> float:
    """The trellis score of an `Observation`, by enumerating its paths over the whole field.

    Each word v with the peer's hash weighs p^k (1 - p)^(n - k), k its distance from the overheard peer payload,
    normalized over all such v; if its image (`coded_images`) has the relay's hash, its path adds that weight
    times the relay link's likelihood of the image.
    """
    n, table, images = obs.n, obs.hf.table.tolist(), coded_images(obs)
    peer, relay = ([p**k * (1 - p) ** (n - k) for k in range(n + 1)] for p in (obs.peer_channel.p, obs.relay_channel.p))
    paths = [(peer[(v ^ obs.noisy_peer).bit_count()], y) for v, y in enumerate(images) if table[v] == obs.peer_hash]
    norm = sum(weight for weight, _ in paths)
    hits = [w / norm * relay[(y ^ obs.noisy_relay).bit_count()] for w, y in paths if w and table[y] == obs.relay_hash]
    return sum(hits, start=0.0)
