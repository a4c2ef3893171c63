"""Subgroup orders of A5, A6 and PSL(2,7), found by brute force.

A group acting on a space has an orbit of s points only if s divides
|G| and G has a subgroup of order |G|/s, the stabilizer of a point of
that orbit.  ``orbit_size_possible`` checks that necessary condition
(it is not sufficient: the subgroup must also fix a point) against the
subgroup orders that ``subgroup_orders`` finds, independently of
``lctforge.lattice``.

Each group is a permutation group: A5 and A6 as the even permutations
of 5 and 6 points, PSL(2,7) as GL(3,2) on the 7 nonzero vectors of
F_2^3.  Subgroups are found one generator at a time: each conjugacy
class of subgroups found so far gives one subgroup S, and S is closed
with each element h, one h per coset hS.  A subgroup generated by
t_1, ..., t_k is then reached through <t_1> < <t_1, t_2> < ..., each
up to conjugacy, so every conjugacy class of subgroups is found.
"""

from functools import cache
from itertools import permutations, product


def _even(perm):
    seen, sign = set(), 1
    for start in range(len(perm)):
        length = 0
        while start not in seen:
            seen.add(start)
            start = perm[start]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign == 1


def _alternating(n):
    return [p for p in permutations(range(n)) if _even(p)]


def _gl32():
    """GL(3,2) on the nonzero vectors 1..7 of F_2^3 (bit masks), as
    permutations of 0..6."""
    out = []
    for cols in product(range(1, 8), repeat=3):
        image = []
        for v in range(1, 8):
            w = 0
            for bit, col in enumerate(cols):
                if v >> bit & 1:
                    w ^= col
            image.append(w)
        if 0 not in image and len(set(image)) == 7:
            out.append(tuple(w - 1 for w in image))
    return out


GROUPS = {"A5": lambda: _alternating(5), "A6": lambda: _alternating(6),
          "PSL(2,7)": _gl32}


@cache
def subgroup_orders(group):
    """The orders of all subgroups of the named group."""
    elements = GROUPS[group]()
    index = {p: i for i, p in enumerate(elements)}
    mul = [[index[tuple(p[i] for i in q)] for q in elements]
           for p in elements]
    order = len(elements)
    identity = index[tuple(range(len(elements[0])))]
    inverse = [row.index(identity) for row in mul]

    def span(gens):
        out, frontier = {identity}, [identity]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = mul[x][g]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return frozenset(out)

    # one (subgroup, generators) per conjugacy class; `known` holds
    # every conjugate of each
    classes = [(frozenset({identity}), ())]
    known = {classes[0][0]}
    for sub, gens in classes:  # grows while it is read
        covered = set()
        for h in range(order):
            if h in covered:
                continue
            covered.update(mul[h][s] for s in sub)  # <sub, h s> = <sub, h>
            new = span(gens + (h,))
            if new not in known:
                known.update(frozenset(mul[mul[x][t]][inverse[x]]
                                       for t in new) for x in range(order))
                classes.append((new, gens + (h,)))
    return frozenset(len(sub) for sub, _ in classes)


def orbit_size_possible(group, size):
    """Whether an orbit of size points passes the necessary condition."""
    order = max(subgroup_orders(group))
    return order % size == 0 and order // size in subgroup_orders(group)
