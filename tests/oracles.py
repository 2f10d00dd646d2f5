"""Reference implementations kept in the test suite.

`circuits_070(support)` is the circuit search of lusym 0.7.0, copied whole:
a fraction-free systematic kernel of the sign matrix, then, for every set of
live free coordinates, a depth-first search for greedy bases of the dual rows
over all t coordinates, with gcd-normalized directions at the last level and
a null vector by back-substitution. It searches complement pairs s, s XOR 1^n
like any other labels. The package's search must return the same catalog.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from operator import mul

from lusym.circuits import BalancedCircuit
from lusym.exactlinalg import normalize_int_vector
from lusym.states import Support, weight_vector


def _eliminate(x, v, p):
    a, b = v[p], x[p]
    out = [a * s - b * t for s, t in zip(x, v)]
    g = gcd(*out)
    return [s // g for s in out] if g > 1 else out


def _systematic_kernel(vectors):
    n, L = len(vectors[0]), len(vectors)
    a = [[vectors[j][i] for j in range(L)] for i in range(n)]
    pivots = []
    for col in range(L):
        r = len(pivots)
        if r == n:
            break
        p = next((i for i in range(r, n) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(n):
            if i != r and a[i][col]:
                a[i] = _eliminate(a[i], a[r], col)
        pivots.append(col)
    is_pivot = set(pivots)
    free = [j for j in range(L) if j not in is_pivot]
    D = lcm(*(a[i][col] for i, col in enumerate(pivots)))
    Q = [[-a[i][f] * (D // a[i][col]) for f in free] for i, col in enumerate(pivots)]
    return pivots, free, D, Q


def _direction(x, y):
    g = gcd(x, y)
    if x < 0 or not x and y < 0:
        g = -g
    return x // g, y // g


def _greedy_bases(rest, echelon, marks, still, out):
    if not still:
        out.append(echelon)
        return
    if still == 1:
        pivots = {p for _, p in echelon}
        i, j = (m for m in range(len(echelon) + 2) if m not in pivots)
        seen = {_direction(w[i], w[j]) for w in marks}
        for v in rest:
            d = _direction(v[i], v[j])
            if d not in seen:
                seen.add(d)
                out.append(echelon + [(v, i if v[i] else j)])
        return
    for q in range(len(rest) - still + 1):
        v = rest[q]
        p = 0
        while not v[p]:
            p += 1
        a = v[p]
        reduced = []
        for w in marks:
            b = w[p]
            if b:
                w = [a * s - b * t for s, t in zip(w, v)]
                if not any(w):
                    break
            reduced.append(w)
        else:
            later = []
            for w in rest[q + 1 :]:
                b = w[p]
                if b:
                    w = [a * s - b * t for s, t in zip(w, v)]
                    g = gcd(*w)
                    if not g:
                        continue
                    if g > 1:
                        w = [s // g for s in w]
                later.append(w)
            _greedy_bases(later, echelon + [(v, p)], reduced, still - 1, out)
        marks.append(v)


def _null_vector(echelon, t):
    pivots = {p for _, p in echelon}
    c = [0] * t
    c[next(i for i in range(t) if i not in pivots)] = 1
    for v, p in reversed(echelon):
        s = sum(map(mul, v, c))
        if s % v[p]:
            c = [x * v[p] for x in c]
            s *= v[p]
        c[p] = -s // v[p]
    return c


def circuits_070(support: Support) -> tuple[BalancedCircuit, ...]:
    pivots, free, D, Q = _systematic_kernel([weight_vector(label) for label in support.labels])
    r, k = len(pivots), len(free)
    found = {}
    for t in range(1, min(k, r + 1) + 1):
        units = [[int(m == i) for i in range(t)] for m in range(t)]
        for live in combinations(range(k), t):
            QT = [[row[m] for m in live] for row in Q]
            echelons = []
            _greedy_bases([row for row in QT if any(row)], [], list(units), t - 1, echelons)
            for echelon in echelons:
                c = _null_vector(echelon, t)
                y = {free[m]: D * x for m, x in zip(live, c)}
                for i, row in enumerate(QT):
                    yp = sum(map(mul, row, c))
                    if yp:
                        y[pivots[i]] = yp
                members = tuple(sorted(y))
                found[members] = normalize_int_vector([y[j] for j in members])
    return tuple(
        BalancedCircuit(tuple(support.labels[i] for i in members), found[members])
        for members in sorted(found)
    )
