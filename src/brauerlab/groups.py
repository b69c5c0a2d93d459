"""Finite permutation groups, subgroups and coset spaces.

Groups are materialized: the element list is enumerated up front (BFS over
the generators) up to ORDER_CAP elements, and each element records the BFS
step (parent, generator) that reached it, along which the multiplication
table is filled. Points are 0-based internally; cycle notation I/O is
1-based.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence


class GroupError(ValueError):
    pass


# largest group enumerated: S7 (order 5 040) fits, S8 (order 40 320) does not
ORDER_CAP = 10_080


def parse_cycles(text: str, degree: Optional[int] = None) -> tuple[int, ...]:
    """Parse 1-based cycle notation like "(1 2)(3 4 5)" into an image tuple.

    Commas and spaces both separate points. "()" is the identity.
    """
    text = text.strip()
    cycles: list[list[int]] = []
    maxpt = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise GroupError(f"unexpected character {ch!r} in cycle notation")
        j = text.find(")", i)
        if j < 0:
            raise GroupError(f"unclosed cycle {text[i:]!r}")
        body = text[i + 1 : j].replace(",", " ").split()
        pts = [int(tok) for tok in body]
        if any(p < 1 for p in pts):
            raise GroupError("points are 1-based")
        if len(set(pts)) != len(pts):
            raise GroupError(f"repeated point in cycle {text[i:j+1]}")
        if pts:
            cycles.append([p - 1 for p in pts])
            maxpt = max(maxpt, max(pts))
        i = j + 1
    if degree is None:
        degree = maxpt
    elif maxpt > degree:
        raise GroupError(f"cycle uses point {maxpt} beyond degree {degree}")
    img = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            img[a] = b
    return tuple(img)


def cycles_string(perm: Sequence[int]) -> str:
    """Inverse of parse_cycles; fixed points are omitted."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        p = start
        while not seen[p]:
            seen[p] = True
            cyc.append(p + 1)
            p = perm[p]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def _mult(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # (a*b)(i) = a(b(i)): apply b first.
    return tuple(a[i] for i in b)


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


class PermutationGroup:
    """A materialized permutation group.

    elements[0] is always the identity. parents records the BFS tree that
    reached each element from the generators.

    Products are looked up in a multiplication table of |G|^2 ints (14 400
    for S5), built from the BFS tree on the first mult and kept: a group
    that is never multiplied, such as the symmetric group of a Formanek
    sequence, never builds one. Building it composes no permutations.
    """

    def __init__(self, generators: Iterable, degree: Optional[int] = None,
                 name: str = ""):
        gens = []
        for g in generators:
            if isinstance(g, str):
                gens.append(parse_cycles(g, degree))
            else:
                gens.append(tuple(g))
        if degree is None:
            degree = max((len(g) for g in gens), default=1)
        gens = [g + tuple(range(len(g), degree)) for g in gens]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise GroupError(f"not a permutation of degree {degree}: {g}")
        self.degree = degree
        self.name = name
        ident = tuple(range(degree))
        self.elements: list[tuple[int, ...]] = [ident]
        self.index: dict[tuple[int, ...], int] = {ident: 0}
        # parents[i] = (parent element index, generator position) along the
        # BFS tree, so element i = parent * gens[pos]; `table` fills each row
        # along it. parents[0] is None.
        self.parents: list[Optional[tuple[int, int]]] = [None]
        self.generators: list[int] = []
        # Insert generators first so their indices are stable and small.
        for pos, g in enumerate(gens):
            if g not in self.index:
                self.index[g] = len(self.elements)
                self.elements.append(g)
                self.parents.append((0, pos))
            self.generators.append(self.index[g])
        # Elements are visited in index order, each once, so right[pos][i]
        # ends up the index of element i * gens[pos].
        self._right: list[list[int]] = [[] for _ in gens]
        for ei, e in enumerate(self.elements):
            for pos, g in enumerate(gens):
                prod = _mult(e, g)
                if prod not in self.index:
                    if len(self.elements) >= ORDER_CAP:
                        raise GroupError(
                            f"order cap exceeded (cap={ORDER_CAP})")
                    self.index[prod] = len(self.elements)
                    self.elements.append(prod)
                    self.parents.append((ei, pos))
                self._right[pos].append(self.index[prod])
        self.order = len(self.elements)
        self.identity = 0
        self.inverses = [self.index[_inv(e)] for e in self.elements]

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        label = self.name or "PermutationGroup"
        return f"<{label} of order {self.order} on {self.degree} points>"

    @cached_property
    def table(self) -> list[list[int]]:
        """table[i][j] is the index of element i * element j.

        Element j is parent * generator along the BFS tree, so row i is
        filled in index order from the right-multiplications the BFS made.
        """
        steps = [(parent, self._right[pos]) for parent, pos in self.parents[1:]]
        table = []
        for i in range(self.order):
            row = [i]
            for parent, right in steps:
                row.append(right[row[parent]])
            table.append(row)
        return table

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def conjugate(self, g: int, h: int) -> int:
        """g h g^-1 by index."""
        table = self.table
        return table[table[g][h]][self.inverses[g]]

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        """Indices of the subgroup generated by the given element indices."""
        seed = list(seed)
        table = self.table
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                row = table[x]
                for s in seed:
                    y = row[s]
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(members)

    def element_index(self, g) -> int:
        """The index of an element given as an index, an image tuple or a
        cycle string; GroupError for anything not in the group."""
        if isinstance(g, int):
            if not 0 <= g < self.order:
                raise GroupError(f"element index {g} is not in 0..{self.order - 1}")
            return g
        perm = parse_cycles(g, self.degree) if isinstance(g, str) else tuple(g)
        perm = perm + tuple(range(len(perm), self.degree))
        if perm not in self.index:
            raise GroupError(f"{cycles_string(perm)} is not in the group")
        return self.index[perm]

    def subgroup(self, generators: Iterable) -> "Subgroup":
        """Subgroup from generators given as indices, image tuples or cycle strings."""
        idxs = tuple(self.element_index(g) for g in generators)
        return Subgroup(self, self.closure(idxs), idxs)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset({0}), ())

    def conjugacy_classes(self) -> list[list[int]]:
        seen = [False] * self.order
        classes = []
        for i in range(self.order):
            if seen[i]:
                continue
            orbit = {i}
            frontier = [i]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in self.generators:
                        y = self.conjugate(g, x)
                        if y not in orbit:
                            orbit.add(y)
                            nxt.append(y)
                frontier = nxt
            for x in orbit:
                seen[x] = True
            classes.append(sorted(orbit))
        return classes

    @cached_property
    def class_representatives(self) -> list[int]:
        """The smallest index in each conjugacy class, identity first."""
        return [c[0] for c in self.conjugacy_classes()]


class Subgroup:
    def __init__(self, parent: PermutationGroup, members: frozenset[int],
                 generators: tuple[int, ...] = ()):
        self.parent = parent
        self.members = members
        self.generators = generators
        if 0 not in members:
            raise GroupError("subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index_in_parent(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"<Subgroup of order {self.order} and index {self.index_in_parent}>"

    def is_trivial(self) -> bool:
        return self.order == 1

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


class CosetSpace:
    """Left cosets gH with lexicographically minimal representatives.

    Representatives are ordered by their image tuples, so the identity
    coset always comes first.
    """

    def __init__(self, group: PermutationGroup, subgroup: Subgroup):
        if subgroup.parent is not group:
            raise GroupError("subgroup belongs to a different group")
        self.group = group
        self.subgroup = subgroup
        order = group.order
        coset_of = [-1] * order
        reps: list[int] = []
        members = sorted(subgroup.members, key=lambda i: group.elements[i])
        by_tuple = sorted(range(order), key=lambda i: group.elements[i])
        for e in by_tuple:
            if coset_of[e] != -1:
                continue
            c = len(reps)
            reps.append(e)
            row = group.table[e]
            for h in members:
                coset_of[row[h]] = c
        self.reps = reps
        self.coset_of = coset_of
        self.size = len(reps)

    def images(self, g: int) -> list[int]:
        """The coset g.c for every coset c, in order."""
        row = self.group.table[g]
        return [self.coset_of[row[r]] for r in self.reps]

    def __repr__(self) -> str:
        return f"<CosetSpace with {self.size} cosets>"


def coset_space(group: PermutationGroup, subgroup: Subgroup) -> CosetSpace:
    return CosetSpace(group, subgroup)


def normal_core(group: PermutationGroup, subgroup: Subgroup) -> Subgroup:
    """The largest normal subgroup of `group` contained in `subgroup`."""
    core = set(subgroup.members)
    for g in range(group.order):
        if len(core) == 1:
            break
        conj = {group.conjugate(g, h) for h in core}
        core &= conj
    return Subgroup(group, frozenset(core))


def min_generators_rel(group: PermutationGroup, subgroup: Subgroup,
                       max_r: int = 6) -> tuple[int, tuple[int, ...]]:
    """Least r such that subgroup plus r extra elements generates the group.

    Exhaustive search with pruning: a candidate already inside the current
    closure can never grow it. The result bounds (from above) the minimal
    number of module generators of the relative augmentation ideal; the two
    can differ in principle, and callers treat this as a certified bound.
    """
    base = list(subgroup.members)
    if group.closure(base) == frozenset(range(group.order)):
        return 0, ()
    full = frozenset(range(group.order))

    def extend(closed: frozenset[int], chosen: tuple[int, ...], depth: int):
        if depth == 0:
            return None
        for g in range(1, group.order):
            if g in closed:
                continue
            bigger = group.closure(list(closed) + [g])
            if bigger == full:
                return chosen + (g,)
            if depth > 1:
                got = extend(bigger, chosen + (g,), depth - 1)
                if got is not None:
                    return got
        return None

    start = group.closure(base)
    for r in range(1, max_r + 1):
        got = extend(start, (), r)
        if got is not None:
            return r, got
    raise GroupError(f"no generating tuple of length <= {max_r} found")


def subgroups_up_to_conjugacy(group: PermutationGroup) -> list[Subgroup]:
    """One representative per conjugacy class of subgroups."""
    subs = all_subgroups(group)
    seen: set[frozenset[int]] = set()
    reps = []
    for h in subs:
        if h.members in seen:
            continue
        reps.append(h)
        for g in range(group.order):
            seen.add(frozenset(group.conjugate(g, x) for x in h.members))
    return reps


def all_subgroups(group: PermutationGroup) -> list[Subgroup]:
    """Every subgroup, by closure-extension search. Fine for small orders."""
    found: dict[frozenset[int], tuple[int, ...]] = {frozenset({0}): ()}
    frontier = [frozenset({0})]
    while frontier:
        nxt = []
        for s in frontier:
            gens = found[s]
            for g in range(1, group.order):
                if g in s:
                    continue
                t = group.closure(list(s) + [g])
                if t not in found:
                    found[t] = gens + (g,)
                    nxt.append(t)
        frontier = nxt
    subs = [Subgroup(group, s, found[s]) for s in found]
    subs.sort(key=lambda h: (h.order, h.sorted_members()))
    return subs


# --- standard constructions ---------------------------------------------

def cyclic_group(n: int) -> PermutationGroup:
    if n == 1:
        return PermutationGroup([], degree=1, name="C1")
    return PermutationGroup([tuple(range(1, n)) + (0,)], degree=n, name=f"C{n}")


def symmetric_group(n: int) -> PermutationGroup:
    if n < 2:
        return PermutationGroup([], degree=max(n, 1), name=f"S{n}")
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    return PermutationGroup(gens, degree=n, name=f"S{n}")


def alternating_group(n: int) -> PermutationGroup:
    if n < 3:
        return PermutationGroup([], degree=max(n, 1), name=f"A{n}")
    three = parse_cycles("(1 2 3)", n)
    if n == 3:
        gens = [three]
    elif n % 2:
        gens = [three, tuple(range(1, n)) + (0,)]
    else:
        gens = [three, (0,) + tuple(range(2, n)) + (1,)]
    return PermutationGroup(gens, degree=n, name=f"A{n}")


def dihedral_group(n: int) -> PermutationGroup:
    """Dihedral group of order 2n acting on an n-gon."""
    rot = tuple(range(1, n)) + (0,)
    flip = tuple((n - i) % n for i in range(n))
    return PermutationGroup([rot, flip], degree=n, name=f"D{n}")


def quaternion_group() -> PermutationGroup:
    # Left-regular action with points labelled 1,i,-1,-i,j,-j,k,-k.
    gi = parse_cycles("(1 2 3 4)(5 7 6 8)", 8)
    gj = parse_cycles("(1 5 3 6)(2 8 4 7)", 8)
    return PermutationGroup([gi, gj], degree=8, name="Q8")


def direct_product(a: PermutationGroup, b: PermutationGroup, name: str = "") -> PermutationGroup:
    da = a.degree
    gens = [a.elements[g] + tuple(range(da, da + b.degree)) for g in a.generators]
    for g in b.generators:
        gens.append(tuple(range(da)) + tuple(x + da for x in b.elements[g]))
    return PermutationGroup(gens, degree=da + b.degree,
                            name=name or f"{a.name}x{b.name}")


@lru_cache(maxsize=None)
def builtin_family() -> tuple[PermutationGroup, ...]:
    """The small-group family used by the lattice regression sweeps."""
    c2 = cyclic_group(2)
    groups = (
        c2,
        cyclic_group(3),
        cyclic_group(4),
        cyclic_group(6),
        direct_product(cyclic_group(2), cyclic_group(2), name="C2xC2"),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        alternating_group(4),
        symmetric_group(4),
        direct_product(direct_product(cyclic_group(2), cyclic_group(2), name="C2xC2"),
                       c2, name="C2xC2xC2"),
    )
    return groups
