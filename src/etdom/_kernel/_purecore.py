"""Pure-Python kernel: the hot combinatorial routines, and the reference.

Most entry points work on (n, adj) with adj a sequence of per-vertex
neighbourhood bitmasks, 0 <= n <= 64; each raises ValueError outside
that range, when len(adj) != n, or when a mask has a bit outside
0..n-1.  augment and screen take packed graphs instead: one int per
graph holding its graph6 payload bits, x(0,1) most significant (the
layout of etdom.graph6.pack), refused with ValueError when negative or
wider than n(n-1)/2 bits.  The compiled
kernel (_fastcore.c, a hand-written CPython extension) implements the
same entry points with identical results, taking positional arguments
only; tests/test_kernel_parity.py cross-checks the two.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt

BACKEND_NAME = "pure"


class BudgetExceeded(RuntimeError):
    """A configured enumeration cap was hit; carries the observed count."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count

    def __reduce__(self):
        # the default rebuilds from self.args, which lacks count
        return type(self), (self.args[0], self.count)


def _check_order(n):
    if not 0 <= n <= 64:
        raise ValueError(f"n must be in 0..64, got {n}")


def _check_graph(n, adj):
    _check_order(n)
    if len(adj) != n:
        raise ValueError(f"adj has {len(adj)} rows, expected n = {n}")
    for v, row in enumerate(adj):
        if row < 0 or row >> n:
            raise ValueError(f"adj[{v}] = {row} is not a mask of vertices 0..{n - 1}")


def _unpack(n, p):
    """Adjacency masks of the order-n graph packed in p: payload bit t,
    the pair (i, j) with t = j(j-1)/2 + i (column by column: (0,1);
    (0,2), (1,2); (0,3), ...), sits at bit n(n-1)/2 - 1 - t of p."""
    if not isinstance(p, int):
        raise TypeError(f"packed graphs must be int, not {type(p).__name__}")
    nbits = n * (n - 1) // 2
    if p < 0 or p >> nbits:
        raise ValueError(f"packed graph {p} has more than {nbits} bits for n={n}")
    adj = [0] * n
    top = nbits - 1
    while p:
        low = p & -p
        t = top - (low.bit_length() - 1)
        j = (1 + isqrt(8 * t + 1)) // 2
        i = t - j * (j - 1) // 2
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        p ^= low
    return adj


def _pack(n, adj):
    """The packed int of an order-n graph (inverse of _unpack)."""
    p = 0
    top = n * (n - 1) // 2 - 1
    for j in range(1, n):
        col = adj[j] & ((1 << j) - 1)
        while col:
            low = col & -col
            p |= 1 << (top - j * (j - 1) // 2 - (low.bit_length() - 1))
            col ^= low
    return p


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Canonical labelling: individualization + equitable refinement.
# ---------------------------------------------------------------------------

def _refine(n, adj, cells, queue):
    """Equitable refinement of an ordered partition (cells = masks)."""
    cells = list(cells)
    queue = list(queue)
    qi = 0
    while qi < len(queue):
        splitter = queue[qi]
        qi += 1
        i = 0
        while i < len(cells):
            cell = cells[i]
            if cell.bit_count() > 1:
                groups = {}
                for v in _bits(cell):
                    d = (adj[v] & splitter).bit_count()
                    groups[d] = groups.get(d, 0) | (1 << v)
                if len(groups) > 1:
                    frags = [groups[d] for d in sorted(groups)]
                    cells[i:i + 1] = frags
                    queue.extend(frags)
                    i += len(frags) - 1
            i += 1
    return cells


def _cert_from_pos(n, adj, pos):
    cert = [0] * n
    for v in range(n):
        row = 0
        av = adj[v]
        while av:
            low = av & -av
            row |= 1 << pos[low.bit_length() - 1]
            av ^= low
        cert[pos[v]] = row
    return tuple(cert)


def _orbit_reps(n, gens, fixed=()):
    """Union-find orbit representatives under generators fixing `fixed`."""
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for g in gens:
        if any(g[v] != v for v in fixed):
            continue
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                if a < b:
                    rep[b] = a
                else:
                    rep[a] = b
    return [find(v) for v in range(n)]


def canon(n, adj):
    """Canonical labelling with full automorphism generators.

    Returns (cert, pos, orbit, gens):
      cert  -- adjacency rows of the canonically relabelled graph,
               the lexicographic minimum over the search tree leaves
      pos   -- pos[v] = canonical position of input vertex v
      orbit -- orbit[v] = least vertex in v's automorphism orbit
      gens  -- permutation generators of the automorphism group
    """
    _check_graph(n, adj)
    if n == 0:
        return (), [], [], []
    full = (1 << n) - 1
    root = _refine(n, adj, [full], [full])

    NO_UNWIND = n + 1
    best = {"cert": None, "pos": None}
    first = {"cert": None, "pos": None, "seq": None}
    gens = []

    def handle_leaf(cells, fixed):
        """Returns an unwind depth, or NO_UNWIND.

        When a leaf matches the first leaf's certificate, the derived
        automorphism maps this branch onto the first-path branch at
        their first divergence, so the search can retreat there
        (verified explicitly before use, never assumed).
        """
        unwind = NO_UNWIND
        pos = [0] * n
        for p, cell in enumerate(cells):
            pos[cell.bit_length() - 1] = p
        cert = _cert_from_pos(n, adj, pos)
        if first["cert"] is None:
            first["cert"] = cert
            first["pos"] = pos
            first["seq"] = list(fixed)
        elif cert == first["cert"]:
            inv_first = [0] * n
            for v in range(n):
                inv_first[first["pos"][v]] = v
            perm = [inv_first[pos[v]] for v in range(n)]
            if any(perm[v] != v for v in range(n)):
                gens.append(perm)
                seq = first["seq"]
                if len(fixed) == len(seq):
                    d = next(
                        (i for i in range(len(fixed)) if fixed[i] != seq[i]), -1
                    )
                    if (
                        d >= 0
                        and perm[fixed[d]] == seq[d]
                        and all(perm[fixed[i]] == fixed[i] for i in range(d))
                    ):
                        unwind = d
        if best["cert"] is None or cert < best["cert"]:
            best["cert"] = cert
            best["pos"] = pos
        return unwind

    def search(cells, fixed):
        depth = len(fixed)
        target = -1
        target_size = n + 1
        for i, cell in enumerate(cells):
            size = cell.bit_count()
            if 1 < size < target_size:
                target_size = size
                target = i
        if target < 0:
            return handle_leaf(cells, fixed)
        cell = cells[target]
        tried = []
        for u in _bits(cell):
            if tried:
                reps = _orbit_reps(n, gens, fixed)
                if any(reps[u] == reps[w] for w in tried):
                    tried.append(u)
                    continue
            split = [1 << u, cell ^ (1 << u)]
            refined = _refine(
                n, adj, cells[:target] + split + cells[target + 1:], split
            )
            r = search(refined, fixed + [u])
            tried.append(u)
            if r < depth:
                return r
        return NO_UNWIND

    search(root, [])
    orbit = _orbit_reps(n, gens)
    return best["cert"], best["pos"], orbit, gens


# ---------------------------------------------------------------------------
# Cliques: maximum clique, maximal clique enumeration, clique cover.
# ---------------------------------------------------------------------------

def max_clique(n, adj, lb=0):
    """Exact clique number via greedy-colouring branch and bound."""
    _check_graph(n, adj)
    if n == 0:
        return 0
    best = lb

    def expand(size, pool):
        nonlocal best
        order = []
        bounds = []
        colour = 0
        remaining = pool
        while remaining:
            colour += 1
            avail = remaining
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append(v)
                bounds.append(colour)
                avail &= ~adj[v] & ~(1 << v)
                remaining &= ~(1 << v)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            nxt = pool & adj[v]
            if nxt:
                expand(size + 1, nxt)
            elif size + 1 > best:
                best = size + 1
            pool &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best


def maximal_cliques(n, adj):
    """All maximal cliques as masks (Bron-Kerbosch, max-degree pivot)."""
    _check_graph(n, adj)
    out = []
    if n == 0:
        return out

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        px = p | x
        pivot = -1
        pivot_cnt = -1
        m = px
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            c = (p & adj[u]).bit_count()
            if c > pivot_cnt:
                pivot_cnt = c
                pivot = u
        cand = p & ~adj[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bk(r | (1 << v), p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, (1 << n) - 1, 0)
    return out


def _alpha(n, adj, lb=0):
    """Independence number, or lb when no independent set beats it: a
    maximum clique of the complement."""
    full = (1 << n) - 1
    return max_clique(n, [full & ~row & ~(1 << v) for v, row in enumerate(adj)], lb)


def _greedy_independent(n, adj, mask):
    cnt = 0
    while mask:
        v = (mask & -mask).bit_length() - 1
        cnt += 1
        mask &= ~adj[v] & ~(1 << v)
    return cnt


def clique_cover(n, adj, lb=0):
    """Exact clique cover number: branch and bound over maximal cliques.

    Any minimum cover can be rewritten with maximal cliques (absorb each
    part into a maximal superset, then trim overlaps), so restricting
    the search space is safe.
    """
    _check_graph(n, adj)
    if n == 0:
        return 0
    full = (1 << n) - 1
    cliques = maximal_cliques(n, adj)
    member = [[] for _ in range(n)]
    for ci, c in enumerate(cliques):
        for v in _bits(c):
            member[v].append(ci)

    covered = 0
    ub = 0
    while covered != full:
        bestc = max(cliques, key=lambda c: (c & ~covered).bit_count())
        covered |= bestc
        ub += 1
    best = ub
    lb = max(lb, _greedy_independent(n, adj, full))
    # Where the greedy bounds leave a gap, the exact alpha may close it: on
    # K(a, a+1) the greedy independent set is one short, and the search
    # below would try every ordering of the edges.
    if best > lb:
        lb = _alpha(n, adj, lb)
    if best <= lb:
        return best

    def search(covered, used):
        nonlocal best
        if covered == full:
            if used < best:
                best = used
            return
        rem = full & ~covered
        if used + _greedy_independent(n, adj, rem) >= best:
            return
        branch_v = -1
        branch_opts = n * n
        m = rem
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if len(member[v]) < branch_opts:
                branch_opts = len(member[v])
                branch_v = v
        for ci in member[branch_v]:
            search(covered | cliques[ci], used + 1)
            if best <= lb:
                return

    search(0, 0)
    return best


# ---------------------------------------------------------------------------
# Dominating sets and the guard game.
# ---------------------------------------------------------------------------

def dominating_sets(n, adj, k, cap):
    """All k-vertex dominating sets as sorted masks; BudgetExceeded past cap."""
    _check_graph(n, adj)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    full = (1 << n) - 1
    if n == 0:
        return []
    closed = [adj[i] | (1 << i) for i in range(n)]
    suffix = [0] * (n + 1)
    reach = [0] * (n + 1)  # the largest closed neighbourhood among i..n-1
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | closed[i]
        reach[i] = max(reach[i + 1], closed[i].bit_count())
    out = []
    count = 0

    def rec(i, left, cov, cur):
        nonlocal count
        if cov | suffix[i] != full:
            return
        if left == 0:
            if cov == full:
                count += 1
                if count <= cap:
                    out.append(cur)
            return
        if n - i < left or (full & ~cov).bit_count() > left * reach[i]:
            return
        rec(i + 1, left - 1, cov | closed[i], cur | (1 << i))
        rec(i + 1, left, cov, cur)

    rec(0, k, 0, 0)
    if count > cap:
        raise BudgetExceeded(
            f"{count} dominating {k}-sets exceed the configured cap {cap}", count
        )
    out.sort()
    return out


def _exists_dominating_set(n, adj, k):
    full = (1 << n) - 1
    closed = [adj[i] | (1 << i) for i in range(n)]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | closed[i]

    def rec(i, left, cov):
        if cov == full:
            return True
        if left == 0 or cov | suffix[i] != full or n - i < left:
            return False
        if rec(i + 1, left - 1, cov | closed[i]):
            return True
        return rec(i + 1, left, cov)

    return rec(0, k, 0)


def domination_number(n, adj):
    _check_graph(n, adj)
    if n == 0:
        return 0
    max_closed = max((adj[i] | (1 << i)).bit_count() for i in range(n))
    k = (n + max_closed - 1) // max_closed
    while not _exists_dominating_set(n, adj, k):
        k += 1
    return k


def guard_game(n, adj, k, cap):
    """(count, survivors) of the k-guard game.

    count is the number of dominating k-sets; BudgetExceeded is raised
    past cap, as in dominating_sets.  survivors are the sorted masks of
    the greatest subset in which, for every unguarded vertex x, some
    guard w on a neighbour of x can move to x with the successor
    configuration also surviving.  Deletions propagate through a
    worklist over reverse dependencies, counting the live responses to
    each attack (the compiled kernel watches one instead).
    """
    configs = dominating_sets(n, adj, k, cap)
    full = (1 << n) - 1
    index = {m: i for i, m in enumerate(configs)}
    counts = []
    alive = [True] * len(configs)
    dead = []
    for i, x_mask in enumerate(configs):
        row = [0] * n
        ok = True
        attacks = full & ~x_mask
        for x in _bits(attacks):
            c = 0
            for w in _bits(adj[x] & x_mask):
                if (x_mask ^ (1 << w)) | (1 << x) in index:
                    c += 1
            row[x] = c
            if c == 0:
                ok = False
        counts.append(row)
        if not ok:
            alive[i] = False
            dead.append(i)
    while dead:
        yi = dead.pop()
        y_mask = configs[yi]
        for v in _bits(y_mask):
            rest = y_mask ^ (1 << v)
            for w in _bits(adj[v] & ~y_mask):
                xi = index.get(rest | (1 << w))
                if xi is not None and alive[xi]:
                    row = counts[xi]
                    row[v] -= 1
                    if row[v] == 0:
                        alive[xi] = False
                        dead.append(xi)
    return len(configs), [m for i, m in enumerate(configs) if alive[i]]


# ---------------------------------------------------------------------------
# Canonical augmentation: one generation layer step.
# ---------------------------------------------------------------------------

MODE_ALL = 0
MODE_TRIANGLE_FREE = 1


def _vertex_key(n, adj, degs, v):
    return (degs[v], sorted(degs[w] for w in _bits(adj[v])))


def _subset_orbit_reps(n, gens):
    """rep[s] = least mask in the orbit of s under <gens>, for all 2^n masks."""
    size = 1 << n
    rep = list(range(size))

    def find(x):
        root = x
        while rep[root] != root:
            root = rep[root]
        while rep[x] != root:
            rep[x], x = root, rep[x]
        return root

    for g in gens:
        image_of_bit = [1 << g[v] for v in range(n)]
        for s in range(size):
            img = 0
            m = s
            while m:
                low = m & -m
                img |= image_of_bit[low.bit_length() - 1]
                m ^= low
            a, b = find(s), find(img)
            if a != b:
                if a < b:
                    rep[b] = a
                else:
                    rep[a] = b
    return [find(s) for s in range(size)]


def _is_connected_masks(n, adj):
    if n == 0:
        return False
    seen = 1
    frontier = adj[0]
    while frontier & ~seen:
        seen |= frontier
        nxt = 0
        m = frontier
        while m:
            v = (m & -m).bit_length() - 1
            nxt |= adj[v]
            m &= m - 1
        frontier = nxt & ~seen
    return (seen | frontier) == (1 << n) - 1


def _is_mtf_masks(n, adj):
    """Triangle-free with every non-adjacent pair sharing a neighbour."""
    for u in range(n):
        au = adj[u]
        for v in range(u + 1, n):
            common = au & adj[v]
            if au >> v & 1:
                if common:
                    return False
            elif not common:
                return False
    return True


def augment(n, parents, mode, emit_connected=False, emit_mtf=False):
    """Isomorph-free children of order n+1 of packed order-n parents.

    Each parent gains vertex n joined to a subset of its vertices.  A
    child is accepted exactly when the new vertex lies in the orbit of
    the canonical deletion vertex (least invariant key, latest canonical
    position), so each unlabelled child is produced from exactly one
    (parent, subset-orbit) pair.  Returns the packed canonical children,
    parent by parent in input order, each parent's in subset order; the
    emit flags drop children failing the final-layer predicates without
    a Python round trip.
    """
    _check_order(n)
    if n >= 22:
        raise BudgetExceeded(f"augmentation over 2^{n} subsets refused", 1 << n)
    out = []
    for p in parents:
        _augment_one(n, _unpack(n, p), mode, emit_connected, emit_mtf, out)
    return out


def _augment_one(n, adj, mode, emit_connected, emit_mtf, out):
    _, _, _, gens = canon(n, adj)
    reps = _subset_orbit_reps(n, gens) if gens else None
    nc = n + 1
    for s in range(1 << n):
        if mode == MODE_TRIANGLE_FREE:
            ok = True
            m = s
            while m:
                v = (m & -m).bit_length() - 1
                if adj[v] & s:
                    ok = False
                    break
                m &= m - 1
            if not ok:
                continue
        if reps is not None and reps[s] != s:
            continue
        cadj = [adj[v] | (1 << n) if s >> v & 1 else adj[v] for v in range(n)]
        cadj.append(s)
        degs = [cadj[v].bit_count() for v in range(nc)]
        dmin = min(degs)
        if degs[n] != dmin:
            continue
        key_new = _vertex_key(nc, cadj, degs, n)
        reject = False
        for v in range(n):
            if degs[v] == dmin and _vertex_key(nc, cadj, degs, v) < key_new:
                reject = True
                break
        if reject:
            continue
        if emit_connected and not _is_connected_masks(nc, cadj):
            continue
        if emit_mtf and not _is_mtf_masks(nc, cadj):
            continue
        cert, pos, orbit, _ = canon(nc, cadj)
        vstar = -1
        vstar_pos = -1
        for v in range(nc):
            if degs[v] == dmin and _vertex_key(nc, cadj, degs, v) == key_new:
                if pos[v] > vstar_pos:
                    vstar_pos = pos[v]
                    vstar = v
        if orbit[n] == orbit[vstar]:
            out.append(_pack(nc, cert))


# ---------------------------------------------------------------------------
# The screen: invariant, criticality and structural tests on packed graphs.
# ---------------------------------------------------------------------------

# screen test codes are indices into this tuple; each name is also the
# name of the filter it computes in etdom.pipeline.FILTERS
SCREEN_TESTS = ("alpha_lt_theta", "alpha_half", "theta_half", "gamma_eq_alpha",
                "gamma_eq_theta", "vertex_critical", "edge_critical", "critical",
                "connected", "triangle_free", "maximal_triangle_free")


def _is_triangle_free_masks(n, adj):
    for u in range(n):
        for v in _bits(adj[u] >> (u + 1) << (u + 1)):
            if adj[u] & adj[v]:
                return False
    return True


class _Invariants:
    """alpha, theta (with lb = alpha), gamma and cover-criticality of one
    graph, each on first use."""

    def __init__(self, n, adj):
        self.n = n
        self.adj = adj

    @cached_property
    def alpha(self):
        return _alpha(self.n, self.adj)

    @cached_property
    def theta(self):
        return clique_cover(self.n, self.adj, self.alpha)

    @cached_property
    def gamma(self):
        return domination_number(self.n, self.adj)

    # theta(G - v) and theta(G + uv) are both at least theta - 1, so with
    # that lower bound each cover search stops at its first cover of size
    # theta - 1

    @cached_property
    def vertex_critical(self):
        """Every vertex deletion lowers theta by one."""
        n, adj = self.n, self.adj
        if n == 0:
            return False
        lb = self.theta - 1
        for v in range(n):
            # G - v, the vertices above v moved down by one
            low = (1 << v) - 1
            sub = [row & low | row >> 1 & ~low for w, row in enumerate(adj) if w != v]
            if clique_cover(n - 1, sub, lb) != lb:
                return False
        return True

    @cached_property
    def edge_critical(self):
        """Every missing-edge insertion lowers theta by one; complete
        graphs pass vacuously."""
        n, adj = self.n, self.adj
        if n == 0:
            return False
        lb = self.theta - 1
        full = (1 << n) - 1
        plus = list(adj)
        for u in range(n):
            for v in _bits(full & ~adj[u] >> (u + 1) << (u + 1)):
                plus[u] = adj[u] | 1 << v
                plus[v] = adj[v] | 1 << u
                cover = clique_cover(n, plus, lb)
                plus[u], plus[v] = adj[u], adj[v]
                if cover != lb:
                    return False
        return True


_SCREEN = (
    lambda iv: iv.alpha < iv.theta,
    lambda iv: iv.alpha == iv.n // 2,
    lambda iv: iv.theta == (iv.n + 1) // 2,
    lambda iv: iv.gamma == iv.alpha,
    lambda iv: iv.gamma == iv.theta,
    lambda iv: iv.vertex_critical,
    lambda iv: iv.edge_critical,
    lambda iv: iv.vertex_critical and iv.edge_critical,
    lambda iv: _is_connected_masks(iv.n, iv.adj),
    lambda iv: _is_triangle_free_masks(iv.n, iv.adj),
    lambda iv: _is_mtf_masks(iv.n, iv.adj),
)


def screen(n, packed, tests):
    """How many leading tests each packed order-n graph passes, as bytes.

    tests holds codes, indices into SCREEN_TESTS.  Each invariant is
    computed only when a test reaches it, and at most once per graph.
    """
    _check_order(n)
    tests = list(tests)
    if len(tests) > 255:
        raise ValueError(f"at most 255 screen tests, got {len(tests)}")
    for code in tests:
        if not 0 <= code < len(SCREEN_TESTS):
            raise ValueError(f"unknown screen test {code}; codes are "
                             f"0..{len(SCREEN_TESTS) - 1}")
    out = bytearray()
    for p in packed:
        adj = _unpack(n, p)
        reached = 0
        iv = _Invariants(n, adj)
        while reached < len(tests) and _SCREEN[tests[reached]](iv):
            reached += 1
        out.append(reached)
    return bytes(out)
