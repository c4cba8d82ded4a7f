"""Exact subgroup counts by Hall's formula, independent of the search.

With h_n = |Hom(G, S_n)| and h_0 = 1, the number a_n of subgroups of
index n of a finitely generated group G follows from M. Hall Jr.'s
recursion (*Subgroups of finite index in free groups*, 1949):

    a_n = h_n/(n-1)! - sum over k < n of h_{n-k} a_k/(n-k)!

h_n is counted exactly, in pure Python, three ways: for a free product
Z_p * Z_q by the number of roots of 1 in S_n, for a triangle group
by Frobenius' character formula, and for any presentation on x and y at
small n by brute force over pairs of permutations.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, prod

from cosetgeom.words import X, XI, Y, YI


def roots_of_one(m, max_n):
    """t_m(n) for n = 0..max_n, the number of g in S_n with g^m = 1: the
    point n lies on a cycle of some length d dividing m, whose other
    points are chosen in (n-1)!/(n-d)! ways."""
    t = [1]
    for n in range(1, max_n + 1):
        t.append(sum(factorial(n - 1) // factorial(n - d) * t[n - d]
                     for d in range(1, n + 1) if m % d == 0))
    return t


def free_product_homs(p, q, max_n):
    """h_n for n = 0..max_n of Z_p * Z_q = < x, y | x^p, y^q >: a
    homomorphism sends x and y to any p-th and q-th roots of 1."""
    return [a * b for a, b in zip(roots_of_one(p, max_n),
                                  roots_of_one(q, max_n))]


def _partitions(n, largest=None):
    """The partitions of n, each a non-increasing tuple of parts."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _centralizer(parts):
    """The order of the centralizer in S_n of a permutation whose cycle
    lengths are parts: n! over the size of its conjugacy class."""
    return prod(part ** parts.count(part) * factorial(parts.count(part))
                for part in set(parts))


@cache
def _dimension(shape):
    """chi(1) of the character of S_n of the partition shape: n! over
    the product of its hook lengths."""
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            hooks *= part - j + sum(p > j for p in shape[i + 1:])
    return factorial(sum(shape)) // hooks


@cache
def _character(shape, cycles):
    """The character of S_n of the partition shape at the cycle type
    cycles, non-increasing, by Murnaghan-Nakayama: the sum over the
    rim hooks of length cycles[0] of (-1)^(rows - 1) times the character
    of what is left at cycles[1:].  On the beta-set of shape, removing a
    rim hook of length k moves a bead from b to a free b - k, and its
    rows - 1 are the beads passed over."""
    if not cycles or cycles[0] == 1:
        return _dimension(shape)
    k, rest = cycles[0], cycles[1:]
    top = len(shape) - 1
    beta = [part + top - i for i, part in enumerate(shape)]
    total = 0
    for b in beta:
        if b >= k and b - k not in beta:
            moved = sorted((b - k if c == b else c for c in beta),
                           reverse=True)
            left = tuple(p for p in (c - top + i for i, c in enumerate(moved))
                         if p)
            total += (-1) ** sum(b - k < c < b for c in beta) \
                * _character(left, rest)
    return total


@cache
def triangle_homs(p, q, r, max_n):
    """h_n for n = 0..max_n of the triangle group Delta(p, q, r) =
    < x, y | x^p, y^q, (x*y)^r > by Frobenius' formula, h_n = (1/n!)
    sum over the partitions l of n of S_p(l) S_q(l) S_r(l) / chi_l(1):
    S_m(l) sums |C| chi_l(C) over the classes C of S_n whose cycle
    lengths divide m, and counts the images of a generator of order
    dividing m weighted by chi_l."""
    homs = []
    for n in range(max_n + 1):
        classes = {m: [(factorial(n) // _centralizer(cycles), cycles)
                       for cycles in _partitions(n)
                       if all(m % part == 0 for part in cycles)]
                   for m in (p, q, r)}
        total = Fraction(0)
        for shape in _partitions(n):
            total += Fraction(prod(
                sum(size * _character(shape, cycles)
                    for size, cycles in classes[m]) for m in (p, q, r)),
                _dimension(shape))
        h = total / factorial(n)
        assert h.denominator == 1
        homs.append(int(h))
    return homs


def _holds(word, images):
    """Whether the letter tuple word fixes every point of the action in
    which letter l sends point c to images[l][c]."""
    for c in range(len(images[word[0]])):
        d = c
        for l in word:
            d = images[l][d]
        if d != c:
            return False
    return True


def _inverse(perm):
    inverse = [0] * len(perm)
    for c, d in enumerate(perm):
        inverse[d] = c
    return tuple(inverse)


def brute_force_homs(pres, max_n):
    """h_n for n = 0..max_n of a presentation on x and y, by brute force:
    x runs over one permutation per cycle type, weighted by the size of
    its conjugacy class, and y over all of S_n, each first filtered by
    the relators that are its powers; the other relators are checked on
    each pair.  Conjugating a pair by g maps the y that go with x onto
    those that go with g x g^-1, so each class counts alike."""
    relators = [r.cyclically_reduced().letters for r in pres.relators]
    x_powers = [w for w in relators if w and set(w) <= {X, XI}]
    y_powers = [w for w in relators if w and set(w) <= {Y, YI}]
    mixed = [w for w in relators if w not in x_powers + y_powers]
    homs = [1]
    for n in range(1, max_n + 1):
        ys = []
        for y in permutations(range(n)):
            images = (None, None, y, _inverse(y))
            if all(_holds(w, images) for w in y_powers):
                ys.append(images)
        count = 0
        for parts in _partitions(n):
            x, start = [], 0
            for part in parts:
                x.extend(range(start + 1, start + part))
                x.append(start)
                start += part
            x = tuple(x)
            images = (x, _inverse(x))
            if not all(_holds(w, images) for w in x_powers):
                continue
            count += factorial(n) // _centralizer(parts) * sum(
                all(_holds(w, images + y[2:]) for w in mixed) for y in ys)
        homs.append(count)
    return homs


def subgroup_counts(homs):
    """a_n for n = 1..len(homs) - 1 by Hall's recursion, from homs[n] =
    h_n with homs[0] = 1, as a list with a_n at n and 0 at 0."""
    counts = [0]
    for n in range(1, len(homs)):
        a = Fraction(homs[n], factorial(n - 1)) - sum(
            Fraction(homs[n - k] * counts[k], factorial(n - k))
            for k in range(1, n))
        assert a.denominator == 1
        counts.append(int(a))
    return counts
