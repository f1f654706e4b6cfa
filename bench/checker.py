"""Independent checker for the outputs the benchmark gets from kneserlab.

Nothing here imports kneserlab. Every figure is derived from the
standard forms and frame conventions that `kneserlab/buildings.py`
documents, with this module's own exact rank arithmetic over F_p:

  D_n: Q(x) = x_1 x_1' + ... + x_n x_n'  on F_p^{2n}
  B_n: Q(x) = x_1 x_1' + ... + x_n x_n' - x_{2n+1}^2  on F_p^{2n+1}, p odd
  C_n: f(x, y) = x_1 y_1' - x_1' y_1 + ...  on F_p^{2n}

with label i at column 2i-2 and its partner i' at column 2i-1. Type
conventions follow the same file: D_n type n (n-1) is the plus (minus)
family of maximal totally singular spaces, D_n type {n-1, n} is the
totally singular (n-1)-spaces, and G_2 type 1 is the B_3 point graph.

A vertex is a tuple of parts, one per type, each part a list of rows.
"""

from __future__ import annotations

import itertools


def rref(rows, p):
    """Canonical reduced row echelon form of the row span, as a tuple of tuples."""
    mat = [[x % p for x in row] for row in rows]
    out = []
    width = len(mat[0]) if mat else 0
    for col in range(width):
        piv = next((r for r in mat if r[col]), None)
        if piv is None:
            continue
        mat.remove(piv)
        inv = pow(piv[col], p - 2, p)
        piv = [x * inv % p for x in piv]
        mat = [
            [(a - r[col] * b) % p for a, b in zip(r, piv)] if r[col] else r
            for r in mat
        ]
        out = [
            [(a - r[col] * b) % p for a, b in zip(r, piv)] if r[col] else r
            for r in out
        ]
        out.append(piv)
    return tuple(tuple(r) for r in out)


def rank(rows, p):
    return len(rref(rows, p)) if rows else 0


def gauss(d, k, q):
    """Number of k-subspaces of F_q^d."""
    if not 0 <= k <= d:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


POSITIVE_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G": lambda n: 6,
}


class Cell:
    """One grid cell: a building family, its rank, a type set and a prime."""

    def __init__(self, family, n, types, p):
        self.family, self.n, self.p = family, n, p
        self.types = tuple(sorted(types))
        if family == "A":
            self.kind = "proj" if len(self.types) == 1 else "flags"
            self.dim = n + 1
            return
        self.kind = "polar"
        if family == "G":
            family, n, self.k = "B", 3, 1
        elif family == "D" and len(self.types) == 2:
            self.k = n - 1
        elif family == "D" and self.types[0] >= n - 1:
            self.k = n
        else:
            self.k = self.types[0]
        self.form_family, self.rank_n = family, n
        self.dim = 2 * n + (1 if family == "B" else 0)
        d = self.dim
        gram = [[0] * d for _ in range(d)]
        for i in range(n):
            gram[2 * i][2 * i + 1] = 1
            gram[2 * i + 1][2 * i] = p - 1 if family == "C" else 1
        if family == "B":
            gram[d - 1][d - 1] = (-2) % p
        self.gram = gram
        # Which maximal family, for D types n (plus) and n - 1 (minus).
        self.parity = None
        if self.family == "D" and self.k == n and len(self.types) == 1:
            self.parity = 0 if self.types[0] == n else 1

    def label(self):
        return "%s%d t%s p%d" % (
            self.family, self.n, ",".join(map(str, self.types)), self.p)

    # -- forms -----------------------------------------------------------

    def quad(self, v):
        p, n = self.p, self.rank_n
        total = sum(v[2 * i] * v[2 * i + 1] for i in range(n))
        if self.form_family == "B":
            total -= v[2 * n] * v[2 * n]
        return total % p

    def bilinear(self, u, v):
        g = self.gram
        return sum(
            u[i] * g[i][j] * v[j]
            for i in range(self.dim) if u[i]
            for j in range(self.dim) if v[j] and g[i][j]
        ) % self.p

    def totally_singular(self, rows):
        if self.form_family != "C" and any(self.quad(r) for r in rows):
            return False
        return all(
            self.bilinear(a, b) == 0 for a, b in itertools.combinations(rows, 2)
        )

    def maximal_parity(self, rows):
        """dim(U ∩ <e_1, ..., e_n>) + n mod 2: 0 for the plus family."""
        ref = [self.unit(2 * i) for i in range(self.rank_n)]
        meet = len(rows) + len(ref) - rank(list(rows) + ref, self.p)
        return (meet + self.rank_n) % 2

    def unit(self, col):
        v = [0] * self.dim
        v[col] = 1
        return v

    # -- vertices ----------------------------------------------------------

    def part_dims(self):
        return self.types if self.family == "A" else (self.k,)

    def canonical(self, vertex):
        return tuple(rref(part, self.p) for part in vertex)

    def is_vertex(self, vertex):
        """True iff `vertex` is an object of this cell's type."""
        dims = self.part_dims()
        if len(vertex) != len(dims):
            return False
        for part, k in zip(vertex, dims):
            if len(part) != k or any(len(r) != self.dim for r in part):
                return False
            if rank(part, self.p) != k:
                return False
        for small, big in zip(vertex, vertex[1:]):
            if rank(list(small) + list(big), self.p) != len(big):
                return False
        if self.kind == "polar":
            rows = vertex[0]
            if not self.totally_singular(rows):
                return False
            if self.parity is not None and self.maximal_parity(rows) != self.parity:
                return False
        return True

    def adjacent(self, x, y):
        """Opposition, decided from the basis matrices alone."""
        p, d = self.p, self.dim
        if self.kind == "polar":
            a, b = x[0], y[0]
            pairing = [[self.bilinear(u, v) for v in b] for u in a]
            return rank(pairing, p) == len(a)
        return all(
            rank(list(fa) + list(gb), p) == min(len(fa) + len(gb), d)
            for fa in x for gb in y
        )

    # -- the apartment Σ ---------------------------------------------------

    def frame_objects(self):
        """The coordinate-frame objects of the standard apartment."""
        d, p = self.dim, self.p
        if self.kind != "polar":
            out = []
            for chain in itertools.product(
                *[itertools.combinations(range(d), a) for a in self.types]
            ):
                if all(set(s) < set(t) for s, t in zip(chain, chain[1:])):
                    out.append(tuple(
                        [self.unit(c) for c in cols] for cols in chain))
            return out
        out = []
        for pairs in itertools.combinations(range(self.rank_n), self.k):
            for sides in itertools.product((0, 1), repeat=self.k):
                rows = [self.unit(2 * i + s) for i, s in zip(pairs, sides)]
                if self.parity is None or self.maximal_parity(rows) == self.parity:
                    out.append((rows,))
        return out

    def sigma_cocliques(self):
        """All maximal cocliques of Σ, as frozensets of frame positions."""
        import networkx as nx

        frames = self.frame_objects()
        comp = nx.Graph()
        comp.add_nodes_from(range(len(frames)))
        for i, j in itertools.combinations(range(len(frames)), 2):
            if not self.adjacent(frames[i], frames[j]):
                comp.add_edge(i, j)
        return [frozenset(c) for c in nx.find_cliques(comp)]

    # -- closed forms ------------------------------------------------------

    def vertex_count(self):
        q = self.p
        if self.family == "A":
            total, prev = 1, 0
            for a in self.types:
                total *= gauss(self.dim - prev, a - prev, q)
                prev = a
            return total
        n, k = self.rank_n, self.k
        e = 0 if self.form_family == "D" else 1
        count = gauss(n, k, q)
        for i in range(n - k + 1, n + 1):
            count *= q ** (i + e - 1) + 1
        return count // 2 if self.parity is not None else count

    def opposite_count(self):
        """Objects opposite a fixed one, q^(|Φ+| - |Φ+ of the Levi|).

        None when the type set is not fixed by the opposition involution,
        where the Kneser graph is not the opposition graph of one type.
        """
        fam, n = self.family, self.n
        opp = {j: j for j in range(1, n + 1)}
        if fam == "A":
            opp = {j: n + 1 - j for j in opp}
        elif fam == "D" and n % 2:
            opp[n - 1], opp[n] = n, n - 1
        if {opp[j] for j in self.types} != set(self.types):
            return None
        rest = [j for j in range(1, n + 1) if j not in self.types]
        levi = sum(_levi_roots(fam, n, comp) for comp in _components(fam, n, rest))
        return self.p ** (POSITIVE_ROOTS[fam](n) - levi)

    def edge_count(self):
        deg = self.opposite_count()
        return None if deg is None else self.vertex_count() * deg // 2


def _dynkin_edges(fam, n):
    edges = {(j, j + 1) for j in range(1, n)}
    if fam == "D":
        edges.discard((n - 1, n))
        edges.add((n - 2, n))
    return edges


def _components(fam, n, nodes):
    edges = _dynkin_edges(fam, n)
    left, comps = set(nodes), []
    while left:
        stack, comp = [left.pop()], set()
        while stack:
            v = stack.pop()
            comp.add(v)
            for a, b in edges:
                for u, w in ((a, b), (b, a)):
                    if u == v and w in left:
                        left.discard(w)
                        stack.append(w)
        comps.append(comp)
    return comps


def _levi_roots(fam, n, comp):
    k = len(comp)
    if fam == "D" and {n - 2, n - 1, n} <= comp:
        return k * (k - 1)
    if fam in ("B", "C") and n in comp:
        return k * k
    return k * (k + 1) // 2


def verify_witness(cell, witness):
    """Re-derive a `fails` witness from its basis matrices alone.

    Returns the list of conditions that do not hold; empty means the
    witness is sound: C is a maximal coclique of Σ, x and y are vertices
    of the cell's type nonadjacent to every member of C, and x ~ y.
    """
    problems = []
    coc = [cell.canonical(v) for v in witness["coclique"]]
    x, y = witness["x"], witness["y"]
    frames = {cell.canonical(f): f for f in cell.frame_objects()}
    if len(set(coc)) != len(coc):
        problems.append("C repeats a member")
    if not all(c in frames for c in coc):
        problems.append("C is not inside Σ")
    elif any(cell.adjacent(frames[a], frames[b])
             for a, b in itertools.combinations(coc, 2)):
        problems.append("C is not a coclique")
    elif any(not any(cell.adjacent(f, frames[c]) for c in coc)
             for key, f in frames.items() if key not in coc):
        problems.append("C is not maximal in Σ")
    vertices = True
    for name, v in (("x", x), ("y", y)):
        if not cell.is_vertex(v):
            problems.append("%s is not a vertex of the cell's type" % name)
            vertices = False
        elif any(cell.adjacent(v, frames[c]) for c in coc if c in frames):
            problems.append("%s is adjacent to a member of C" % name)
    if vertices and (cell.canonical(x) == cell.canonical(y) or not cell.adjacent(x, y)):
        problems.append("x and y are not adjacent")
    return problems


def column_ranks(rows, p):
    """Rank of every column subset, indexed by bitmask."""
    ncols = len(rows[0])
    return [
        rank([[r[j] for j in range(ncols) if mask >> j & 1] for r in rows], p)
        if mask else 0
        for mask in range(1 << ncols)
    ]


def union_max(ranks1, ranks2, subset):
    """Max |I1 ∪ I2| over Ii independent in matroid i and inside `subset`.

    Brute force: for each I1 independent in the first matroid, the best
    disjoint I2 has size r2(K minus I1).
    """
    k = 0
    for j in subset:
        k |= 1 << j
    best, sub = 0, k
    while True:
        if ranks1[sub] == bin(sub).count("1"):
            best = max(best, ranks1[sub] + ranks2[k & ~sub])
        if sub == 0:
            return best
        sub = (sub - 1) & k

