/*
 * Compiled kernel: the same contract as _purecore, word-at-a-time loops.
 *
 * Most entry points take a graph as (n, adj), adj[v] being the
 * neighbourhood bitmask of vertex v; here each mask is a uint64_t, so
 * 0 <= n <= 64, and every such entry point raises ValueError outside that
 * range, when len(adj) != n, or when a mask has a bit outside 0..n-1.
 * augment and screen take packed graphs instead: one int per graph holding
 * its graph6 payload bits, x(0,1) most significant (etdom.graph6.pack), and
 * they raise ValueError for a negative int or one with more than n(n-1)/2
 * bits.
 * _purecore.py is the reference: tests/test_kernel_parity.py holds the two
 * kernels to identical results on every entry point, and any difference
 * (certificate order, acceptance decisions, survivors) is a bug here, not
 * a tolerance.
 *
 * Entry points take positional arguments only (METH_FASTCALL).  Built by
 * setup.py with plain setuptools:  python setup.py build_ext --inplace
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 64
/* A refinement appends at most 2 * (MAXN - 1) fragments to its queue. */
#define QCAP 256
#define MODE_ALL 0
#define MODE_TRIANGLE_FREE 1
/* augment refuses parents with 2^n subsets or more past this order. */
#define AUGMENT_MAXN 22
/* A packed graph of order n holds n(n-1)/2 bits, in at most PACKED_WORDS words. */
#define MAXPAIRS (MAXN * (MAXN - 1) / 2)
#define PACKED_WORDS ((MAXPAIRS + 63) / 64)

typedef uint64_t u64;

#define BIT(v) ((u64)1 << (v))

static PyObject *BudgetExceeded;
static PyObject *WORD_BITS;  /* the int 64 */

static inline int popcnt64(u64 x) { return __builtin_popcountll(x); }
static inline int ctz64(u64 x) { return __builtin_ctzll(x); }
static inline int bitlen64(u64 x) { return x ? 64 - __builtin_clzll(x) : 0; }

static inline u64
full_mask(int n)
{
    return n == 64 ? ~(u64)0 : BIT(n) - 1;
}


/* ------------------------------------------------------------------------
 * Arguments.
 * --------------------------------------------------------------------- */

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t lo, Py_ssize_t hi)
{
    if (nargs >= lo && nargs <= hi)
        return 0;
    if (lo == hi)
        PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments (%zd given)",
                     name, lo, nargs);
    else
        PyErr_Format(PyExc_TypeError,
                     "%s() takes %zd to %zd positional arguments (%zd given)",
                     name, lo, hi, nargs);
    return -1;
}

static int
arg_int(PyObject *obj, int *out)
{
    long v = PyLong_AsLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < INT_MIN || v > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "value too large to convert to int");
        return -1;
    }
    *out = (int)v;
    return 0;
}

/* Masks must be ints: converting one then runs no Python code that could
   change the sequence it is read from. */
static int
arg_u64(PyObject *obj, u64 *out)
{
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "masks must be int, not %.100s", Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyLong_AsUnsignedLongLong(obj);
    return *out == (u64)-1 && PyErr_Occurred() ? -1 : 0;
}

/* Raises BudgetExceeded(message, count), consuming both references; NULL
   for either means its exception is already set. */
static PyObject *
budget_exceeded(PyObject *message, PyObject *count)
{
    if (message != NULL && count != NULL) {
        PyObject *exc = PyObject_CallFunctionObjArgs(BudgetExceeded, message, count, NULL);
        if (exc != NULL) {
            PyErr_SetObject(BudgetExceeded, exc);
            Py_DECREF(exc);
        }
    }
    Py_XDECREF(message);
    Py_XDECREF(count);
    return NULL;
}

/* An order n in 0..MAXN, else ValueError. */
static int
arg_order(PyObject *obj, int *n)
{
    int overflow;
    long v = PyLong_AsLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < 0 || v > MAXN) {
        PyErr_Format(PyExc_ValueError, "n must be in 0..%d, got %S", MAXN, obj);
        return -1;
    }
    *n = (int)v;
    return 0;
}

/* n from args[0] and its n masks from args[1], range-checked as in
   _purecore._check_graph: a bit past n would index a row never set. */
static int
arg_graph(PyObject *const *args, int *n, u64 *adj)
{
    if (arg_order(args[0], n) < 0)
        return -1;
    PyObject *seq = PySequence_Fast(args[1], "adj must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    if (len != *n) {
        PyErr_Format(PyExc_ValueError, "adj has %zd rows, expected n = %d", len, *n);
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    u64 outside = ~full_mask(*n);
    for (Py_ssize_t i = 0; i < len; i++) {
        int bad = arg_u64(items[i], &adj[i]) < 0;
        if (bad && !PyErr_ExceptionMatches(PyExc_OverflowError)) {
            Py_DECREF(seq);
            return -1;
        }
        if (bad || adj[i] & outside) {
            PyErr_Format(PyExc_ValueError, "adj[%zd] = %S is not a mask of vertices 0..%d",
                         i, items[i], *n - 1);
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

/* Graph6 payload bit t is the pair (pair_i[t], pair_j[t]), column by
   column: (0,1); (0,2), (1,2); (0,3), ...  The order does not depend on n. */
static unsigned char pair_i[MAXPAIRS], pair_j[MAXPAIRS];

static void
init_pairs(void)
{
    int t = 0;
    for (int j = 1; j < MAXN; j++) {
        for (int i = 0; i < j; i++) {
            pair_i[t] = (unsigned char)i;
            pair_j[t++] = (unsigned char)j;
        }
    }
}

/* The 64-bit words of a nonnegative int, least significant first: their
   count, maxw + 1 when there are more than maxw, or -1 with an exception. */
static int
long_words(PyObject *obj, int maxw, u64 *w)
{
    int nw = 0;
    Py_INCREF(obj);
    for (;;) {
        int nonzero = PyObject_IsTrue(obj);
        if (nonzero <= 0 || nw == maxw) {
            Py_DECREF(obj);
            return nonzero < 0 ? -1 : nonzero ? maxw + 1 : nw;
        }
        w[nw++] = PyLong_AsUnsignedLongLongMask(obj);
        PyObject *rest = PyNumber_Rshift(obj, WORD_BITS);
        Py_DECREF(obj);
        if (rest == NULL)
            return -1;
        obj = rest;
    }
}

/* The adjacency masks of the order-n graph packed in obj, as
   _purecore._unpack: ValueError unless 0 <= obj < 2**(n(n-1)/2). */
static int
arg_packed(PyObject *obj, int n, u64 *adj)
{
    int nbits = n * (n - 1) / 2, overflow, nw;
    u64 w[PACKED_WORDS];
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "packed graphs must be int, not %.100s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow > 0) {
        if ((nw = long_words(obj, PACKED_WORDS, w)) < 0)
            return -1;
    } else {
        w[0] = (u64)v;
        nw = v != 0;
    }
    if (overflow < 0 || (overflow == 0 && v < 0) || nw > PACKED_WORDS
        || (nw && 64 * (nw - 1) + bitlen64(w[nw - 1]) > nbits)) {
        PyErr_Format(PyExc_ValueError, "packed graph %S has more than %d bits for n=%d",
                     obj, nbits, n);
        return -1;
    }
    memset(adj, 0, n * sizeof(u64));
    for (int wi = 0; wi < nw; wi++) {
        for (u64 m = w[wi]; m; m &= m - 1) {
            int t = nbits - 1 - (64 * wi + ctz64(m));
            adj[pair_i[t]] |= BIT(pair_j[t]);
            adj[pair_j[t]] |= BIT(pair_i[t]);
        }
    }
    return 0;
}

/* The packed int of an order-n graph, as _purecore._pack. */
static PyObject *
packed_object(int n, const u64 *adj)
{
    int nbits = n * (n - 1) / 2, nw = (nbits + 63) / 64;
    u64 w[PACKED_WORDS];
    memset(w, 0, sizeof w);
    for (int j = 1, t = 0; j < n; t += j, j++) {
        for (u64 m = adj[j] & (BIT(j) - 1); m; m &= m - 1) {
            int k = nbits - 1 - (t + ctz64(m));
            w[k >> 6] |= BIT(k & 63);
        }
    }
    PyObject *r = PyLong_FromUnsignedLongLong(nw ? w[nw - 1] : 0);
    for (int wi = nw - 2; r != NULL && wi >= 0; wi--) {
        PyObject *high = PyNumber_Lshift(r, WORD_BITS);
        PyObject *low = high == NULL ? NULL : PyLong_FromUnsignedLongLong(w[wi]);
        Py_DECREF(r);
        r = low == NULL ? NULL : PyNumber_Or(high, low);
        Py_XDECREF(high);
        Py_XDECREF(low);
    }
    return r;
}

static PyObject *
tuple_u64(const u64 *a, int n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromUnsignedLongLong(a[i]);
        if (v == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

static PyObject *
list_int(const int *a, int n)
{
    PyObject *l = PyList_New(n);
    if (l == NULL)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLong(a[i]);
        if (v == NULL) {
            Py_DECREF(l);
            return NULL;
        }
        PyList_SET_ITEM(l, i, v);
    }
    return l;
}


/* ------------------------------------------------------------------------
 * Canonical labelling: individualization and equitable refinement.
 * --------------------------------------------------------------------- */

typedef struct {
    int n;
    const u64 *adj;
    u64 best_cert[MAXN];
    int best_pos[MAXN];
    int has_best;
    u64 first_cert[MAXN];
    int first_pos[MAXN];
    int has_first;
    int *gens;          /* flattened permutations, gens[g * MAXN + v] */
    int ngens;
    int gens_cap;
    int overflow;
    int fixed[MAXN];
    int nfixed;
    int first_seq[MAXN];
    int first_len;
} CState;

static void
refine(const u64 *adj, u64 *cells, int *pncells, u64 *queue, int qlen)
{
    int qi = 0, ncells = *pncells;
    u64 bucket[MAXN + 1];
    while (qi < qlen) {
        u64 splitter = queue[qi++];
        for (int i = 0; i < ncells; i++) {
            u64 cell = cells[i];
            if (popcnt64(cell) <= 1)
                continue;
            int dmin = MAXN + 1, dmax = -1;
            for (u64 m = cell; m; m &= m - 1) {
                int d = popcnt64(adj[ctz64(m)] & splitter);
                if (d < dmin)
                    dmin = d;
                if (d > dmax)
                    dmax = d;
            }
            if (dmax == dmin)
                continue;
            for (int d = dmin; d <= dmax; d++)
                bucket[d] = 0;
            for (u64 m = cell; m; m &= m - 1) {
                int v = ctz64(m);
                bucket[popcnt64(adj[v] & splitter)] |= BIT(v);
            }
            int nfrag = 0;
            for (int d = dmin; d <= dmax; d++)
                if (bucket[d])
                    nfrag++;
            for (int j = ncells - 1; j > i; j--)
                cells[j + nfrag - 1] = cells[j];
            int j = i;
            for (int d = dmin; d <= dmax; d++) {
                if (bucket[d]) {
                    cells[j++] = bucket[d];
                    queue[qlen++] = bucket[d];
                }
            }
            ncells += nfrag - 1;
            i += nfrag - 1;
        }
    }
    *pncells = ncells;
}

/* Returns an unwind depth, or n + 1 for none.  A leaf matching the first
   leaf's certificate yields an automorphism mapping this branch onto the
   first path at their first divergence; the jump target is verified
   explicitly before use, never assumed. */
static int
leaf(CState *st, const u64 *cells, int ncells)
{
    int n = st->n, unwind = n + 1;
    int pos[MAXN], inv_first[MAXN], perm[MAXN];
    u64 cert[MAXN];
    for (int p = 0; p < ncells; p++)
        pos[ctz64(cells[p])] = p;
    for (int v = 0; v < n; v++) {
        u64 row = 0;
        for (u64 m = st->adj[v]; m; m &= m - 1)
            row |= BIT(pos[ctz64(m)]);
        cert[pos[v]] = row;
    }
    if (!st->has_first) {
        st->has_first = 1;
        memcpy(st->first_cert, cert, n * sizeof(u64));
        memcpy(st->first_pos, pos, n * sizeof(int));
        memcpy(st->first_seq, st->fixed, st->nfixed * sizeof(int));
        st->first_len = st->nfixed;
    } else if (memcmp(cert, st->first_cert, n * sizeof(u64)) == 0) {
        int is_id = 1;
        for (int v = 0; v < n; v++)
            inv_first[st->first_pos[v]] = v;
        for (int v = 0; v < n; v++) {
            perm[v] = inv_first[pos[v]];
            if (perm[v] != v)
                is_id = 0;
        }
        if (!is_id) {
            if (st->ngens >= st->gens_cap) {
                st->overflow = 1;
            } else {
                memcpy(st->gens + st->ngens * MAXN, perm, n * sizeof(int));
                st->ngens++;
            }
            if (st->nfixed == st->first_len) {
                int d = -1;
                for (int i = 0; i < st->nfixed; i++) {
                    if (st->fixed[i] != st->first_seq[i]) {
                        d = i;
                        break;
                    }
                }
                if (d >= 0 && perm[st->fixed[d]] == st->first_seq[d]) {
                    int ok = 1;
                    for (int i = 0; i < d; i++) {
                        if (perm[st->fixed[i]] != st->fixed[i]) {
                            ok = 0;
                            break;
                        }
                    }
                    if (ok)
                        unwind = d;
                }
            }
        }
    }
    int better = !st->has_best;
    for (int i = 0; !better && i < n; i++) {
        if (cert[i] != st->best_cert[i]) {
            better = cert[i] < st->best_cert[i];
            break;
        }
    }
    if (better) {
        st->has_best = 1;
        memcpy(st->best_cert, cert, n * sizeof(u64));
        memcpy(st->best_pos, pos, n * sizeof(int));
    }
    return unwind;
}

static inline int
uf_find(int *rep, int x)
{
    int root = x;
    while (rep[root] != root)
        root = rep[root];
    while (rep[x] != root) {
        int t = rep[x];
        rep[x] = root;
        x = t;
    }
    return root;
}

/* rep[v] = least vertex in v's orbit under the generators fixing
   fixed[0..nfixed). */
static void
orbit_reps_fixing(const CState *st, int nfixed, int *rep)
{
    int n = st->n;
    for (int v = 0; v < n; v++)
        rep[v] = v;
    for (int gi = 0; gi < st->ngens; gi++) {
        const int *g = st->gens + gi * MAXN;
        int ok = 1;
        for (int t = 0; t < nfixed; t++) {
            if (g[st->fixed[t]] != st->fixed[t]) {
                ok = 0;
                break;
            }
        }
        if (!ok)
            continue;
        for (int v = 0; v < n; v++) {
            int a = uf_find(rep, v), b = uf_find(rep, g[v]);
            if (a < b)
                rep[b] = a;
            else if (b < a)
                rep[a] = b;
        }
    }
    for (int v = 0; v < n; v++)
        rep[v] = uf_find(rep, v);
}

static int
search(CState *st, const u64 *cells, int ncells)
{
    int n = st->n, depth = st->nfixed;
    int target = -1, tsize = MAXN + 1, ntried = 0;
    u64 child[MAXN], queue[QCAP];
    int tried[MAXN], rep[MAXN];
    for (int i = 0; i < ncells; i++) {
        int sz = popcnt64(cells[i]);
        if (sz > 1 && sz < tsize) {
            tsize = sz;
            target = i;
        }
    }
    if (target < 0)
        return leaf(st, cells, ncells);
    u64 cell = cells[target];
    for (u64 m = cell; m; m &= m - 1) {
        int u = ctz64(m);
        u64 bit = BIT(u);
        if (ntried) {
            int skip = 0;
            orbit_reps_fixing(st, st->nfixed, rep);
            for (int t = 0; t < ntried; t++) {
                if (rep[u] == rep[tried[t]]) {
                    skip = 1;
                    break;
                }
            }
            if (skip) {
                tried[ntried++] = u;
                continue;
            }
        }
        memcpy(child, cells, target * sizeof(u64));
        child[target] = bit;
        child[target + 1] = cell ^ bit;
        memcpy(child + target + 2, cells + target + 1,
               (ncells - target - 1) * sizeof(u64));
        int nc2 = ncells + 1;
        queue[0] = bit;
        queue[1] = cell ^ bit;
        refine(st->adj, child, &nc2, queue, 2);
        st->fixed[st->nfixed++] = u;
        int r = search(st, child, nc2);
        st->nfixed--;
        tried[ntried++] = u;
        if (r < depth)
            return r;
    }
    return n + 1;
}

/* One search with n >= 1; returns 1 when the generator buffer overflowed. */
static int
canon_core(CState *st, int n, const u64 *adj)
{
    u64 cells[MAXN], queue[QCAP];
    int ncells = 1;
    st->n = n;
    st->adj = adj;
    st->has_best = 0;
    st->has_first = 0;
    st->ngens = 0;
    st->overflow = 0;
    st->nfixed = 0;
    cells[0] = full_mask(n);
    queue[0] = cells[0];
    refine(adj, cells, &ncells, queue, 1);
    search(st, cells, ncells);
    return st->overflow;
}

/* Runs the search, growing the generator buffer on overflow.  st->gens
   starts NULL and stays owned by the caller, who frees it (also after a
   failure) and may reuse it for further searches. */
static int
canon_run(CState *st, int n, const u64 *adj)
{
    if (st->gens == NULL) {
        st->gens_cap = 128;
        st->gens = malloc((size_t)st->gens_cap * MAXN * sizeof(int));
        if (st->gens == NULL) {
            PyErr_NoMemory();
            return -1;
        }
    }
    while (canon_core(st, n, adj)) {
        free(st->gens);
        st->gens_cap *= 2;
        st->gens = malloc((size_t)st->gens_cap * MAXN * sizeof(int));
        if (st->gens == NULL) {
            PyErr_NoMemory();
            return -1;
        }
    }
    return 0;
}

PyDoc_STRVAR(canon_doc,
"canon(n, adj) -> (cert, pos, orbit, gens), exactly as _purecore.canon.");

static PyObject *
py_canon(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n, rep[MAXN];
    u64 adj[MAXN];
    CState st;
    if (check_nargs("canon", nargs, 2, 2) < 0 || arg_graph(args, &n, adj) < 0)
        return NULL;
    if (n == 0)
        return Py_BuildValue("(()[][][])");
    st.gens = NULL;
    if (canon_run(&st, n, adj) < 0) {
        free(st.gens);
        return NULL;
    }
    orbit_reps_fixing(&st, 0, rep);
    PyObject *cert = tuple_u64(st.best_cert, n);
    PyObject *pos = list_int(st.best_pos, n);
    PyObject *orbit = list_int(rep, n);
    PyObject *gens = PyList_New(st.ngens);
    PyObject *result = NULL;
    if (cert == NULL || pos == NULL || orbit == NULL || gens == NULL)
        goto done;
    for (int gi = 0; gi < st.ngens; gi++) {
        PyObject *g = list_int(st.gens + gi * MAXN, n);
        if (g == NULL)
            goto done;
        PyList_SET_ITEM(gens, gi, g);
    }
    result = PyTuple_Pack(4, cert, pos, orbit, gens);
done:
    free(st.gens);
    Py_XDECREF(cert);
    Py_XDECREF(pos);
    Py_XDECREF(orbit);
    Py_XDECREF(gens);
    return result;
}


/* ------------------------------------------------------------------------
 * Cliques: maximum clique, maximal clique enumeration, clique cover.
 * --------------------------------------------------------------------- */

typedef struct {
    u64 adj[MAXN];
    int best;
} CliqueCtx;

/* Greedy-colouring branch and bound. */
static void
mc_expand(CliqueCtx *cc, int size, u64 pool)
{
    int order[MAXN], bounds[MAXN], cnt = 0, colour = 0;
    u64 remaining = pool;
    while (remaining) {
        colour++;
        u64 avail = remaining;
        while (avail) {
            int v = ctz64(avail);
            order[cnt] = v;
            bounds[cnt++] = colour;
            avail &= ~cc->adj[v] & ~BIT(v);
            remaining &= ~BIT(v);
        }
    }
    for (int i = cnt - 1; i >= 0; i--) {
        if (size + bounds[i] <= cc->best)
            return;
        int v = order[i];
        u64 nxt = pool & cc->adj[v];
        if (nxt)
            mc_expand(cc, size + 1, nxt);
        else if (size + 1 > cc->best)
            cc->best = size + 1;
        pool &= ~BIT(v);
    }
}

/* The independence number of a graph, or lb when no independent set beats
   it: a maximum clique of the complement. */
static int
alpha_c(int n, const u64 *adj, int lb)
{
    CliqueCtx co;
    for (int v = 0; v < n; v++)
        co.adj[v] = full_mask(n) & ~adj[v] & ~BIT(v);
    co.best = lb;
    mc_expand(&co, 0, full_mask(n));
    return co.best;
}

PyDoc_STRVAR(max_clique_doc,
"max_clique(n, adj, lb=0) -> clique number, or lb when no clique beats it.");

static PyObject *
py_max_clique(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n, lb = 0;
    CliqueCtx cc;
    if (check_nargs("max_clique", nargs, 2, 3) < 0 || arg_graph(args, &n, cc.adj) < 0
        || (nargs > 2 && arg_int(args[2], &lb) < 0))
        return NULL;
    if (n == 0)
        return PyLong_FromLong(0);
    cc.best = lb;
    mc_expand(&cc, 0, full_mask(n));
    return PyLong_FromLong(cc.best);
}

typedef struct {
    const u64 *adj;
    u64 *out;
    Py_ssize_t nout;
    Py_ssize_t cap;
} BKCtx;

/* Bron-Kerbosch with the max-degree pivot; -1 with MemoryError set. */
static int
bk(BKCtx *b, u64 r, u64 p, u64 x)
{
    if (p == 0 && x == 0) {
        if (b->nout >= b->cap) {
            u64 *grown = realloc(b->out, 2 * b->cap * sizeof(u64));
            if (grown == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            b->out = grown;
            b->cap *= 2;
        }
        b->out[b->nout++] = r;
        return 0;
    }
    int pivot = -1, pivot_cnt = -1;
    for (u64 m = p | x; m; m &= m - 1) {
        int u = ctz64(m);
        int c = popcnt64(p & b->adj[u]);
        if (c > pivot_cnt) {
            pivot_cnt = c;
            pivot = u;
        }
    }
    for (u64 cand = p & ~b->adj[pivot]; cand; cand &= cand - 1) {
        int v = ctz64(cand);
        if (bk(b, r | BIT(v), p & b->adj[v], x & b->adj[v]) < 0)
            return -1;
        p &= ~BIT(v);
        x |= BIT(v);
    }
    return 0;
}

/* All maximal cliques of a graph with n >= 1 into b->out, which the
   caller frees (also after a failure). */
static int
maximal_cliques_c(BKCtx *b, int n, const u64 *adj)
{
    b->adj = adj;
    b->nout = 0;
    b->cap = 64;
    b->out = malloc(b->cap * sizeof(u64));
    if (b->out == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return bk(b, 0, full_mask(n), 0);
}

PyDoc_STRVAR(maximal_cliques_doc,
"maximal_cliques(n, adj) -> every maximal clique as a mask, in search order.");

static PyObject *
py_maximal_cliques(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    u64 adj[MAXN];
    BKCtx b;
    if (check_nargs("maximal_cliques", nargs, 2, 2) < 0 || arg_graph(args, &n, adj) < 0)
        return NULL;
    if (n == 0)
        return PyList_New(0);
    PyObject *result = NULL;
    if (maximal_cliques_c(&b, n, adj) == 0 && (result = PyList_New(b.nout)) != NULL) {
        for (Py_ssize_t i = 0; i < b.nout; i++) {
            PyObject *v = PyLong_FromUnsignedLongLong(b.out[i]);
            if (v == NULL) {
                Py_CLEAR(result);
                break;
            }
            PyList_SET_ITEM(result, i, v);
        }
    }
    free(b.out);
    return result;
}

static int
greedy_indep(const u64 *adj, u64 mask)
{
    int cnt = 0;
    while (mask) {
        int v = ctz64(mask);
        cnt++;
        mask &= ~adj[v] & ~BIT(v);
    }
    return cnt;
}

typedef struct {
    const u64 *adj;
    u64 full;
    const u64 *cliques;
    const int *member;  /* clique indices per vertex, member_off-delimited */
    int member_off[MAXN + 1];
    int best;
    int lb;
} CoverCtx;

static void
cover_search(CoverCtx *ct, u64 covered, int used)
{
    if (covered == ct->full) {
        if (used < ct->best)
            ct->best = used;
        return;
    }
    u64 rem = ct->full & ~covered;
    if (used + greedy_indep(ct->adj, rem) >= ct->best)
        return;
    int branch_v = -1, branch_opts = INT_MAX;
    for (u64 m = rem; m; m &= m - 1) {
        int v = ctz64(m);
        int c = ct->member_off[v + 1] - ct->member_off[v];
        if (c < branch_opts) {
            branch_opts = c;
            branch_v = v;
        }
    }
    for (int i = ct->member_off[branch_v]; i < ct->member_off[branch_v + 1]; i++) {
        cover_search(ct, covered | ct->cliques[ct->member[i]], used + 1);
        if (ct->best <= ct->lb)
            return;
    }
}

/* The exact clique cover number of a graph with n >= 1 given a known lower
   bound lb, or -1 with MemoryError set. */
static int
clique_cover_c(int n, const u64 *adj, int lb)
{
    int counts[MAXN];
    BKCtx b;
    CoverCtx ct;
    if (maximal_cliques_c(&b, n, adj) < 0) {
        free(b.out);
        return -1;
    }
    memset(counts, 0, sizeof counts);
    for (Py_ssize_t ci = 0; ci < b.nout; ci++)
        for (u64 m = b.out[ci]; m; m &= m - 1)
            counts[ctz64(m)]++;
    ct.member_off[0] = 0;
    for (int v = 0; v < n; v++)
        ct.member_off[v + 1] = ct.member_off[v] + counts[v];
    int *member = malloc(ct.member_off[n] * sizeof(int));
    if (member == NULL) {
        free(b.out);
        PyErr_NoMemory();
        return -1;
    }
    memset(counts, 0, sizeof counts);
    for (Py_ssize_t ci = 0; ci < b.nout; ci++) {
        for (u64 m = b.out[ci]; m; m &= m - 1) {
            int v = ctz64(m);
            member[ct.member_off[v] + counts[v]++] = (int)ci;
        }
    }
    ct.adj = adj;
    ct.full = full_mask(n);
    ct.cliques = b.out;
    ct.member = member;
    u64 covered = 0;
    int ub = 0;
    while (covered != ct.full) {
        u64 bestc = 0;
        for (Py_ssize_t ci = 0; ci < b.nout; ci++)
            if (popcnt64(b.out[ci] & ~covered) > popcnt64(bestc & ~covered))
                bestc = b.out[ci];
        covered |= bestc;
        ub++;
    }
    ct.best = ub;
    ct.lb = lb;
    int gi_lb = greedy_indep(adj, ct.full);
    if (gi_lb > ct.lb)
        ct.lb = gi_lb;
    /* Where the greedy bounds leave a gap, the exact alpha may close it:
       on K(a, a+1) the greedy independent set is one short, and the
       search below would try every ordering of the edges. */
    if (ct.best > ct.lb)
        ct.lb = alpha_c(n, adj, ct.lb);
    if (ct.best > ct.lb)
        cover_search(&ct, 0, 0);
    free(member);
    free(b.out);
    return ct.best;
}

PyDoc_STRVAR(clique_cover_doc,
"clique_cover(n, adj, lb=0) -> exact clique cover number.\n\n"
"Branch and bound over the maximal cliques, seeded with a greedy cover;\n"
"lb is a known lower bound that lets the search stop early.");

static PyObject *
py_clique_cover(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n, lb = 0;
    u64 adj[MAXN];
    if (check_nargs("clique_cover", nargs, 2, 3) < 0 || arg_graph(args, &n, adj) < 0
        || (nargs > 2 && arg_int(args[2], &lb) < 0))
        return NULL;
    if (n == 0)
        return PyLong_FromLong(0);
    int theta = clique_cover_c(n, adj, lb);
    return theta < 0 ? NULL : PyLong_FromLong(theta);
}


/* ------------------------------------------------------------------------
 * Dominating sets and the guard game.
 * --------------------------------------------------------------------- */

typedef struct {
    u64 closed[MAXN];
    u64 suffix[MAXN + 1];  /* suffix[i]: the closed neighbourhoods of i..n-1 */
    int reach[MAXN + 1];   /* reach[i]: the largest of them */
    u64 full;
    int n;
} DomCtx;

static void
dom_init(DomCtx *dc, int n, const u64 *adj)
{
    dc->n = n;
    dc->full = full_mask(n);
    for (int i = 0; i < n; i++)
        dc->closed[i] = adj[i] | BIT(i);
    dc->suffix[n] = 0;
    dc->reach[n] = 0;
    for (int i = n - 1; i >= 0; i--) {
        dc->suffix[i] = dc->suffix[i + 1] | dc->closed[i];
        dc->reach[i] = popcnt64(dc->closed[i]);
        if (dc->reach[i + 1] > dc->reach[i])
            dc->reach[i] = dc->reach[i + 1];
    }
}

/* Dominating sets as masks: all of them counted, the first cap stored. */
typedef struct {
    u64 *a;
    long long len, size, count, cap;
} ConfBuf;

/* Visits every dominating set with `left` more vertices taken from i..n-1,
   giving up on a branch whose `left` vertices cannot cover what is left
   uncovered even at reach[i] vertices each; -1 when the buffer cannot grow. */
static int
dom_collect(const DomCtx *dc, int i, int left, u64 cov, u64 cur, ConfBuf *out)
{
    if ((cov | dc->suffix[i]) != dc->full)
        return 0;
    if (left == 0) {
        if (cov != dc->full || ++out->count > out->cap)
            return 0;
        if (out->len == out->size) {
            long long size = out->size ? 2 * out->size : 1024;
            u64 *a = realloc(out->a, (size_t)size * sizeof(u64));
            if (a == NULL)
                return -1;
            out->a = a;
            out->size = size;
        }
        out->a[out->len++] = cur;
        return 0;
    }
    if (dc->n - i < left || popcnt64(dc->full & ~cov) > left * dc->reach[i])
        return 0;
    if (dom_collect(dc, i + 1, left - 1, cov | dc->closed[i], cur | BIT(i), out) < 0)
        return -1;
    return dom_collect(dc, i + 1, left, cov, cur, out);
}

/* Sorts the masks a[0..len), each below 2^nbits, a byte at a time from
   the lowest (a radix sort); -1 when its scratch buffer cannot be had. */
static int
sort_masks(u64 *a, long long len, int nbits)
{
    u64 *tmp = malloc((size_t)len * sizeof(u64) + 1), *src = a, *dst = tmp;
    if (tmp == NULL)
        return -1;
    for (int shift = 0; shift < nbits; shift += 8) {
        long long start[256] = {0};
        for (long long i = 0; i < len; i++)
            start[src[i] >> shift & 255]++;
        for (long long d = 0, sum = 0; d < 256; d++) {
            long long c = start[d];
            start[d] = sum;
            sum += c;
        }
        for (long long i = 0; i < len; i++)
            dst[start[src[i] >> shift & 255]++] = src[i];
        u64 *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != a)
        memcpy(a, src, (size_t)len * sizeof(u64));
    free(tmp);
    return 0;
}

/* Fills out with the dominating k-sets of a graph with n >= 1, unsorted;
   -1 with BudgetExceeded set when there are more than out->cap. */
static int
dominating_configs(int n, const u64 *adj, int k, ConfBuf *out)
{
    DomCtx dc;
    dom_init(&dc, n, adj);
    if (dom_collect(&dc, 0, k, 0, 0, out) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    if (out->count > out->cap) {
        budget_exceeded(
            PyUnicode_FromFormat("%lld dominating %d-sets exceed the configured cap %lld",
                                 out->count, k, out->cap),
            PyLong_FromLongLong(out->count));
        return -1;
    }
    return 0;
}

/* (n, adj, k, cap) of dominating_sets and guard_game; -1 with an exception set. */
static int
dom_args(const char *name, PyObject *const *args, Py_ssize_t nargs, int *n, u64 *adj,
         int *k, long long *cap)
{
    if (check_nargs(name, nargs, 4, 4) < 0 || arg_graph(args, n, adj) < 0
        || arg_int(args[2], k) < 0)
        return -1;
    *cap = PyLong_AsLongLong(args[3]);
    if (*cap == -1 && PyErr_Occurred())
        return -1;
    if (*k < 0) {
        PyErr_Format(PyExc_ValueError, "k must be >= 0, got %d", *k);
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(dominating_sets_doc,
"dominating_sets(n, adj, k, cap) -> every dominating k-set as a mask, sorted.\n\n"
"Raises BudgetExceeded, carrying the full count, when there are more than cap.");

/* The masks a[0..len) of order-n vertex sets as a sorted list; a is
   sorted in place. */
static PyObject *
sorted_list(u64 *a, long long len, int n)
{
    if (sort_masks(a, len, n) < 0)
        return PyErr_NoMemory();
    PyObject *out = PyList_New(len);
    if (out == NULL)
        return NULL;
    for (long long i = 0; i < len; i++) {
        PyObject *v = PyLong_FromUnsignedLongLong(a[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

static PyObject *
py_dominating_sets(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n, k;
    u64 adj[MAXN];
    ConfBuf buf = {0};
    if (dom_args("dominating_sets", args, nargs, &n, adj, &k, &buf.cap) < 0)
        return NULL;
    if (n == 0)
        return PyList_New(0);
    PyObject *out = NULL;
    if (dominating_configs(n, adj, k, &buf) == 0)
        out = sorted_list(buf.a, buf.len, n);
    free(buf.a);
    return out;
}

static int
dom_exists(const DomCtx *dc, int i, int left, u64 cov)
{
    if (cov == dc->full)
        return 1;
    if (left == 0 || (cov | dc->suffix[i]) != dc->full || dc->n - i < left)
        return 0;
    return dom_exists(dc, i + 1, left - 1, cov | dc->closed[i])
        || dom_exists(dc, i + 1, left, cov);
}

/* The domination number of a graph with n >= 1. */
static int
domination_number_c(int n, const u64 *adj)
{
    int maxc = 0;
    DomCtx dc;
    dom_init(&dc, n, adj);
    for (int i = 0; i < n; i++)
        if (popcnt64(dc.closed[i]) > maxc)
            maxc = popcnt64(dc.closed[i]);
    int k = (n + maxc - 1) / maxc;
    while (!dom_exists(&dc, 0, k, 0))
        k++;
    return k;
}

PyDoc_STRVAR(domination_number_doc,
"domination_number(n, adj) -> size of a minimum dominating set.");

static PyObject *
py_domination_number(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    u64 adj[MAXN];
    if (check_nargs("domination_number", nargs, 2, 2) < 0 || arg_graph(args, &n, adj) < 0)
        return NULL;
    return PyLong_FromLong(n == 0 ? 0 : domination_number_c(n, adj));
}

/* The configuration table: linear probing over indices into the
   configurations, at most a quarter full, since most lookups are for
   sets that are not configurations and run to an empty slot.  The slot
   mixes the high half of the product into the low one, so that it
   depends on every vertex of the key, not only on the low ones.  A
   configuration leaves the table when its key is cleared to 0, which is
   no k-set for k >= 1; its slot stays, so the probe sequences through it
   are unchanged. */
#define HASH_MUL 0x9E3779B97F4A7C15ULL
#define NO_CONFIG UINT32_MAX

typedef struct {
    u64 *keys;
    uint32_t *slots;
    u64 mask;
} ConfTable;

static inline u64
ht_slot(const ConfTable *t, u64 x)
{
    u64 h = x * HASH_MUL;
    return (h ^ h >> 32) & t->mask;
}

static inline uint32_t
ht_lookup(const ConfTable *t, u64 x)
{
    for (u64 slot = ht_slot(t, x);; slot = (slot + 1) & t->mask) {
        uint32_t idx = t->slots[slot];
        if (idx == NO_CONFIG || t->keys[idx] == x)
            return idx;
    }
}

/* The lowest guard w in cand whose move onto v takes configuration x to a
   configuration still in the table, or -1. */
static inline int
live_response(const ConfTable *t, u64 x, int v, u64 cand)
{
    for (; cand; cand &= cand - 1) {
        int w = ctz64(cand);
        if (ht_lookup(t, (x ^ BIT(w)) | BIT(v)) != NO_CONFIG)
            return w;
    }
    return -1;
}

/* The greatest fixpoint of the guard game over the m configurations of t,
   which leaves in t exactly those from which every attack sequence can be
   answered.  A live configuration X watches one response per unguarded
   vertex v, the guard watch[X*n+v] whose move onto v leads to a
   configuration still in t.  When a configuration Y dies, each live
   predecessor X = Y - v + w watching w for v moves its watch forward to
   its next such response, or dies too.  A watch never moves back: a dead
   configuration never revives.  dead holds the masks awaiting that step. */
static void
watched_fixpoint(int n, const u64 *adj, ConfTable *t, uint32_t m,
                 unsigned char *watch, u64 *dead)
{
    u64 full = full_mask(n);
    uint32_t ndead = 0;
    for (uint32_t xi = 0; xi < m; xi++) {
        u64 x = t->keys[xi];
        for (u64 am = full & ~x; am; am &= am - 1) {
            int v = ctz64(am);
            int w = live_response(t, x, v, adj[v] & x);
            if (w < 0) {
                t->keys[xi] = 0;
                dead[ndead++] = x;
                break;
            }
            watch[(size_t)xi * n + v] = (unsigned char)w;
        }
    }
    while (ndead > 0) {
        u64 y = dead[--ndead];
        for (u64 vm = y; vm; vm &= vm - 1) {
            int v = ctz64(vm);
            for (u64 wm = adj[v] & ~y; wm; wm &= wm - 1) {
                int w = ctz64(wm);
                u64 x = (y ^ BIT(v)) | BIT(w);
                uint32_t xi = ht_lookup(t, x);
                if (xi == NO_CONFIG || watch[(size_t)xi * n + v] != w)
                    continue;
                int next = live_response(t, x, v, adj[v] & x & ~((BIT(w) << 1) - 1));
                if (next < 0) {
                    t->keys[xi] = 0;
                    dead[ndead++] = x;
                } else {
                    watch[(size_t)xi * n + v] = (unsigned char)next;
                }
            }
        }
    }
}

/* Plays the guard game on the m configurations keys[0..m), clearing the
   key of each one that dies to 0; -1 when out of memory. */
static int
guard_game_c(int n, const u64 *adj, u64 *keys, uint32_t m)
{
    u64 tsize = 1;
    while (tsize < 4 * (u64)m)
        tsize <<= 1;
    ConfTable t = {keys, malloc(tsize * sizeof(uint32_t)), tsize - 1};
    unsigned char *watch = malloc((size_t)m * n + 1);
    u64 *dead = malloc(((size_t)m + 1) * sizeof(u64));
    int rc = -1;
    if (t.slots != NULL && watch != NULL && dead != NULL) {
        memset(t.slots, 0xff, tsize * sizeof(uint32_t));
        for (uint32_t i = 0; i < m; i++) {
            u64 slot = ht_slot(&t, keys[i]);
            while (t.slots[slot] != NO_CONFIG)
                slot = (slot + 1) & t.mask;
            t.slots[slot] = i;
        }
        watched_fixpoint(n, adj, &t, m, watch, dead);
        rc = 0;
    }
    free(t.slots);
    free(watch);
    free(dead);
    return rc;
}

PyDoc_STRVAR(guard_game_doc,
"guard_game(n, adj, k, cap) -> (count, survivors).\n\n"
"count is the number of dominating k-sets; survivors, sorted, are those\n"
"from which k guards can answer every attack forever.  Raises\n"
"BudgetExceeded, carrying count, when count exceeds cap.");

static PyObject *
py_guard_game(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n, k;
    u64 adj[MAXN];
    ConfBuf buf = {0};
    if (dom_args("guard_game", args, nargs, &n, adj, &k, &buf.cap) < 0)
        return NULL;
    if (n == 0)
        return Py_BuildValue("(iN)", 0, PyList_New(0));
    PyObject *result = NULL;
    if (dominating_configs(n, adj, k, &buf) == 0) {
        if (buf.len >= NO_CONFIG || guard_game_c(n, adj, buf.a, (uint32_t)buf.len) < 0) {
            PyErr_NoMemory();
        } else {
            long long alive = 0;
            for (long long i = 0; i < buf.len; i++)
                if (buf.a[i] != 0)
                    buf.a[alive++] = buf.a[i];
            PyObject *survivors = sorted_list(buf.a, alive, n);
            if (survivors != NULL)
                result = Py_BuildValue("(LN)", buf.count, survivors);
        }
    }
    free(buf.a);
    return result;
}


/* ------------------------------------------------------------------------
 * Canonical augmentation: one generation layer step.
 * --------------------------------------------------------------------- */

static void
sort_bytes(unsigned char *a, int len)
{
    for (int i = 1; i < len; i++) {
        unsigned char t = a[i];
        int j = i - 1;
        while (j >= 0 && a[j] > t) {
            a[j + 1] = a[j];
            j--;
        }
        a[j + 1] = t;
    }
}

/* Compares the invariant keys (degree, sorted neighbour degrees) of v and w. */
static int
key_cmp(const u64 *adj, const int *degs, int v, int w)
{
    unsigned char kv[MAXN + 1], kw[MAXN + 1];
    int lv = 0, lw = 0;
    if (degs[v] != degs[w])
        return degs[v] < degs[w] ? -1 : 1;
    for (u64 m = adj[v]; m; m &= m - 1)
        kv[lv++] = (unsigned char)degs[ctz64(m)];
    for (u64 m = adj[w]; m; m &= m - 1)
        kw[lw++] = (unsigned char)degs[ctz64(m)];
    sort_bytes(kv, lv);
    sort_bytes(kw, lw);
    for (int i = 0; i < lv; i++)
        if (kv[i] != kw[i])
            return kv[i] < kw[i] ? -1 : 1;
    return 0;
}

static int
is_connected_masks(int n, const u64 *adj)
{
    if (n == 0)
        return 0;
    u64 seen = 1, frontier = adj[0];
    while (frontier & ~seen) {
        u64 nxt = 0;
        seen |= frontier;
        for (u64 m = frontier; m; m &= m - 1)
            nxt |= adj[ctz64(m)];
        frontier = nxt & ~seen;
    }
    return (seen | frontier) == full_mask(n);
}

static int
is_triangle_free_masks(int n, const u64 *adj)
{
    for (int u = 0; u < n; u++)
        for (u64 m = adj[u] & ~full_mask(u + 1); m; m &= m - 1)
            if (adj[u] & adj[ctz64(m)])
                return 0;
    return 1;
}

/* Triangle-free with every non-adjacent pair sharing a neighbour. */
static int
is_mtf_masks(int n, const u64 *adj)
{
    for (int u = 0; u < n; u++) {
        for (int v = u + 1; v < n; v++) {
            u64 common = adj[u] & adj[v];
            if ((adj[u] >> v) & 1 ? common != 0 : common == 0)
                return 0;
        }
    }
    return 1;
}

/* srep[s] = least mask in the orbit of s under <gens>, for all 2^n masks. */
static void
subset_orbit_reps(int n, const int *gens, int ngens, uint32_t *srep)
{
    uint32_t total = (uint32_t)1 << n;
    for (uint32_t s = 0; s < total; s++)
        srep[s] = s;
    for (int gi = 0; gi < ngens; gi++) {
        const int *g = gens + gi * MAXN;
        for (uint32_t s = 0; s < total; s++) {
            uint32_t img = 0;
            for (u64 m = s; m; m &= m - 1)
                img |= (uint32_t)1 << g[ctz64(m)];
            uint32_t a = s, b = img;
            while (srep[a] != a)
                a = srep[a];
            while (srep[b] != b)
                b = srep[b];
            if (a < b)
                srep[b] = a;
            else if (b < a)
                srep[a] = b;
        }
    }
    for (uint32_t s = 0; s < total; s++) {
        uint32_t root = s;
        while (srep[root] != root)
            root = srep[root];
        for (uint32_t x = s; srep[x] != root;) {
            uint32_t t = srep[x];
            srep[x] = root;
            x = t;
        }
    }
}

typedef struct {
    int n, mode, want_conn, want_mtf;
    CState st;          /* st.gens is reused from parent to parent */
    uint32_t *srep;     /* 2^n subset orbit representatives, allocated once */
    PyObject *out;
} AugCtx;

/* Appends the packed children of one parent to ac->out; -1 with an
   exception set. */
static int
augment_one(AugCtx *ac, const u64 *padj)
{
    int n = ac->n, nc = n + 1, use_srep = 0;
    u64 cadj[MAXN];
    int parent_degs[MAXN], degs[MAXN], crep[MAXN];
    CState *st = &ac->st;
    for (int i = 0; i < n; i++)
        parent_degs[i] = popcnt64(padj[i]);
    if (n > 0) {
        if (canon_run(st, n, padj) < 0)
            return -1;
        if (st->ngens) {
            if (ac->srep == NULL
                && (ac->srep = malloc(((size_t)1 << n) * sizeof(uint32_t))) == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            subset_orbit_reps(n, st->gens, st->ngens, ac->srep);
            use_srep = 1;
        }
    }
    for (uint32_t si = 0; si < (uint32_t)1 << n; si++) {
        u64 s = si;
        if (ac->mode == MODE_TRIANGLE_FREE) {
            int ok = 1;
            for (u64 m = s; m; m &= m - 1) {
                if (padj[ctz64(m)] & s) {
                    ok = 0;
                    break;
                }
            }
            if (!ok)
                continue;
        }
        if (use_srep && ac->srep[si] != si)
            continue;
        for (int i = 0; i < n; i++) {
            int in_s = (int)((s >> i) & 1);
            cadj[i] = in_s ? padj[i] | BIT(n) : padj[i];
            degs[i] = parent_degs[i] + in_s;
        }
        cadj[n] = s;
        degs[n] = popcnt64(s);
        int dmin = degs[n];
        for (int i = 0; i < n; i++)
            if (degs[i] < dmin)
                dmin = degs[i];
        if (degs[n] != dmin)
            continue;
        int reject = 0;
        for (int v = 0; v < n; v++) {
            if (degs[v] == dmin && key_cmp(cadj, degs, v, n) < 0) {
                reject = 1;
                break;
            }
        }
        if (reject)
            continue;
        if (ac->want_conn && !is_connected_masks(nc, cadj))
            continue;
        if (ac->want_mtf && !is_mtf_masks(nc, cadj))
            continue;
        if (canon_run(st, nc, cadj) < 0)
            return -1;
        orbit_reps_fixing(st, 0, crep);
        /* the canonical deletion vertex: least key, latest canonical position */
        int vstar = n, vstar_pos = st->best_pos[n];
        for (int v = 0; v < n; v++) {
            if (degs[v] == dmin && key_cmp(cadj, degs, v, n) == 0
                && st->best_pos[v] > vstar_pos) {
                vstar_pos = st->best_pos[v];
                vstar = v;
            }
        }
        if (crep[n] == crep[vstar]) {
            PyObject *child = packed_object(nc, st->best_cert);
            if (child == NULL || PyList_Append(ac->out, child) < 0) {
                Py_XDECREF(child);
                return -1;
            }
            Py_DECREF(child);
        }
    }
    return 0;
}

PyDoc_STRVAR(augment_doc,
"augment(n, parents, mode, emit_connected=False, emit_mtf=False) -> children.\n\n"
"Isomorph-free children of packed order-n parents, as _purecore.augment:\n"
"the packed canonical graph of each accepted child, parent by parent, each\n"
"parent's children in subset order.");

static PyObject *
py_augment(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    AugCtx ac;
    u64 padj[MAXN];
    ac.want_conn = ac.want_mtf = 0;
    if (check_nargs("augment", nargs, 3, 5) < 0 || arg_order(args[0], &ac.n) < 0
        || arg_int(args[2], &ac.mode) < 0
        || (nargs > 3 && (ac.want_conn = PyObject_IsTrue(args[3])) < 0)
        || (nargs > 4 && (ac.want_mtf = PyObject_IsTrue(args[4])) < 0))
        return NULL;
    if (ac.n >= AUGMENT_MAXN) {
        PyObject *one = PyLong_FromLong(1);
        PyObject *count = one == NULL ? NULL : PyNumber_Lshift(one, args[0]);
        Py_XDECREF(one);
        return budget_exceeded(
            PyUnicode_FromFormat("augmentation over 2^%d subsets refused", ac.n), count);
    }
    PyObject *seq = PySequence_Fast(args[1], "parents must be a sequence");
    if (seq == NULL)
        return NULL;
    ac.st.gens = NULL;
    ac.srep = NULL;
    ac.out = PyList_New(0);
    for (Py_ssize_t i = 0; ac.out != NULL && i < PySequence_Fast_GET_SIZE(seq); i++) {
        if (arg_packed(PySequence_Fast_GET_ITEM(seq, i), ac.n, padj) < 0
            || augment_one(&ac, padj) < 0)
            Py_CLEAR(ac.out);
    }
    free(ac.srep);
    free(ac.st.gens);
    Py_DECREF(seq);
    return ac.out;
}


/* ------------------------------------------------------------------------
 * The screen: invariant, criticality and structural tests on packed graphs.
 * --------------------------------------------------------------------- */

/* Test codes, in the order of SCREEN_TESTS. */
enum {
    ALPHA_LT_THETA, ALPHA_HALF, THETA_HALF, GAMMA_EQ_ALPHA, GAMMA_EQ_THETA,
    VERTEX_CRITICAL, EDGE_CRITICAL, CRITICAL, CONNECTED, TRIANGLE_FREE,
    MAXIMAL_TRIANGLE_FREE, NSCREEN
};
static const char *const SCREEN_NAMES[NSCREEN] = {
    "alpha_lt_theta", "alpha_half", "theta_half", "gamma_eq_alpha", "gamma_eq_theta",
    "vertex_critical", "edge_critical", "critical", "connected", "triangle_free",
    "maximal_triangle_free",
};

/* What each test reads; theta is computed with lb = alpha, so it needs alpha. */
enum { NEED_ALPHA = 1, NEED_THETA = 2, NEED_GAMMA = 4, NEED_VCRIT = 8, NEED_ECRIT = 16 };
static const unsigned char SCREEN_NEEDS[NSCREEN] = {
    [ALPHA_LT_THETA] = NEED_ALPHA | NEED_THETA,
    [ALPHA_HALF] = NEED_ALPHA,
    [THETA_HALF] = NEED_ALPHA | NEED_THETA,
    [GAMMA_EQ_ALPHA] = NEED_ALPHA | NEED_GAMMA,
    [GAMMA_EQ_THETA] = NEED_ALPHA | NEED_THETA | NEED_GAMMA,
    [VERTEX_CRITICAL] = NEED_ALPHA | NEED_THETA | NEED_VCRIT,
    [EDGE_CRITICAL] = NEED_ALPHA | NEED_THETA | NEED_ECRIT,
    [CRITICAL] = NEED_ALPHA | NEED_THETA | NEED_VCRIT | NEED_ECRIT,
};

/* Every vertex deletion lowers theta by one: 1 or 0, or -1 with
   MemoryError set.  theta(G - v) >= theta - 1, so with that lower bound
   each cover search stops at its first cover of size theta - 1. */
static int
vertex_critical_c(int n, const u64 *adj, int theta)
{
    u64 sub[MAXN];
    if (n == 0)
        return 0;
    for (int v = 0; v < n; v++) {
        /* G - v, the vertices above v moved down by one */
        u64 low = BIT(v) - 1;
        int m = 0, cover;
        for (int w = 0; w < n; w++)
            if (w != v)
                sub[m++] = (adj[w] & low) | ((adj[w] >> 1) & ~low);
        if ((cover = m ? clique_cover_c(m, sub, theta - 1) : 0) < 0)
            return -1;
        if (cover != theta - 1)
            return 0;
    }
    return 1;
}

/* Every missing-edge insertion lowers theta by one (complete graphs pass
   vacuously): 1 or 0, or -1 with MemoryError set.  theta(G + uv) >=
   theta - 1, so each cover search stops as in vertex_critical_c. */
static int
edge_critical_c(int n, const u64 *adj, int theta)
{
    u64 plus[MAXN];
    if (n == 0)
        return 0;
    memcpy(plus, adj, n * sizeof *adj);
    for (int u = 0; u < n; u++) {
        for (u64 m = full_mask(n) & ~adj[u] & ~full_mask(u + 1); m; m &= m - 1) {
            int v = ctz64(m), cover;
            plus[u] |= BIT(v);
            plus[v] |= BIT(u);
            cover = clique_cover_c(n, plus, theta - 1);
            plus[u] = adj[u];
            plus[v] = adj[v];
            if (cover < 0)
                return -1;
            if (cover != theta - 1)
                return 0;
        }
    }
    return 1;
}

/* How many leading tests a graph passes, or -1 with an exception set.
   Each value is computed on first use: alpha, then theta with lb = alpha,
   gamma, and each criticality with the theta already found. */
static int
screen_one(int n, const u64 *adj, const int *tests, int ntests)
{
    int alpha = -1, theta = -1, gamma = -1, vcrit = -1, ecrit = -1;
    for (int t = 0; t < ntests; t++) {
        int code = tests[t], needs = SCREEN_NEEDS[code], pass = 0;
        if (alpha < 0 && (needs & NEED_ALPHA))
            alpha = alpha_c(n, adj, 0);
        if (theta < 0 && (needs & NEED_THETA)
            && (theta = n ? clique_cover_c(n, adj, alpha) : 0) < 0)
            return -1;
        if (gamma < 0 && (needs & NEED_GAMMA))
            gamma = n ? domination_number_c(n, adj) : 0;
        if (vcrit < 0 && (needs & NEED_VCRIT)
            && (vcrit = vertex_critical_c(n, adj, theta)) < 0)
            return -1;
        /* critical is vertex- and then edge-critical, as in etdom.pipeline */
        if (ecrit < 0 && (needs & NEED_ECRIT) && (code != CRITICAL || vcrit)
            && (ecrit = edge_critical_c(n, adj, theta)) < 0)
            return -1;
        switch (code) {
        case ALPHA_LT_THETA: pass = alpha < theta; break;
        case ALPHA_HALF: pass = alpha == n / 2; break;
        case THETA_HALF: pass = theta == (n + 1) / 2; break;
        case GAMMA_EQ_ALPHA: pass = gamma == alpha; break;
        case GAMMA_EQ_THETA: pass = gamma == theta; break;
        case VERTEX_CRITICAL: pass = vcrit; break;
        case EDGE_CRITICAL: pass = ecrit; break;
        case CRITICAL: pass = vcrit && ecrit; break;
        case CONNECTED: pass = is_connected_masks(n, adj); break;
        case TRIANGLE_FREE: pass = is_triangle_free_masks(n, adj); break;
        case MAXIMAL_TRIANGLE_FREE: pass = is_mtf_masks(n, adj); break;
        }
        if (!pass)
            return t;
    }
    return ntests;
}

PyDoc_STRVAR(screen_doc,
"screen(n, packed, tests) -> bytes, one reached-count per packed graph.\n\n"
"tests holds codes, indices into SCREEN_TESTS; byte i counts how many\n"
"leading tests graph i passes, as _purecore.screen.");

static PyObject *
py_screen(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    int n, tests[UCHAR_MAX];
    u64 adj[MAXN];
    if (check_nargs("screen", nargs, 3, 3) < 0 || arg_order(args[0], &n) < 0)
        return NULL;
    PyObject *codes = PySequence_Fast(args[2], "tests must be a sequence");
    if (codes == NULL)
        return NULL;
    Py_ssize_t ntests = PySequence_Fast_GET_SIZE(codes);
    if (ntests > UCHAR_MAX) {
        PyErr_Format(PyExc_ValueError, "at most %d screen tests, got %zd", UCHAR_MAX, ntests);
        Py_DECREF(codes);
        return NULL;
    }
    for (Py_ssize_t t = 0; t < ntests; t++) {
        PyObject *code = PySequence_Fast_GET_ITEM(codes, t);
        int overflow;
        long v = PyLong_AsLongAndOverflow(code, &overflow);
        if ((v == -1 && PyErr_Occurred()) || overflow || v < 0 || v >= NSCREEN) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "unknown screen test %S; codes are 0..%d",
                             code, NSCREEN - 1);
            Py_DECREF(codes);
            return NULL;
        }
        tests[t] = (int)v;
    }
    Py_DECREF(codes);
    PyObject *seq = PySequence_Fast(args[1], "packed must be a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t m = PySequence_Fast_GET_SIZE(seq);
    PyObject *out = PyBytes_FromStringAndSize(NULL, m);
    for (Py_ssize_t i = 0; out != NULL && i < m; i++) {
        int reached;
        if (arg_packed(PySequence_Fast_GET_ITEM(seq, i), n, adj) < 0
            || (reached = screen_one(n, adj, tests, (int)ntests)) < 0)
            Py_CLEAR(out);
        else
            PyBytes_AS_STRING(out)[i] = (char)reached;
    }
    Py_DECREF(seq);
    return out;
}


/* ------------------------------------------------------------------------
 * Module.
 * --------------------------------------------------------------------- */

#define ENTRY(name) \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL, name##_doc}

static PyMethodDef fastcore_methods[] = {
    ENTRY(canon),
    ENTRY(max_clique),
    ENTRY(maximal_cliques),
    ENTRY(clique_cover),
    ENTRY(domination_number),
    ENTRY(dominating_sets),
    ENTRY(guard_game),
    ENTRY(augment),
    ENTRY(screen),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT,
    "_fastcore",
    "Compiled kernel: the same contract as _purecore, word-at-a-time loops.",
    -1,
    fastcore_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__fastcore(void)
{
    init_pairs();
    if (WORD_BITS == NULL && (WORD_BITS = PyLong_FromLong(64)) == NULL)
        return NULL;
    PyObject *pure = PyImport_ImportModule("etdom._kernel._purecore");
    if (pure == NULL)
        return NULL;
    Py_CLEAR(BudgetExceeded);
    BudgetExceeded = PyObject_GetAttrString(pure, "BudgetExceeded");
    Py_DECREF(pure);
    if (BudgetExceeded == NULL)
        return NULL;
    PyObject *mod = PyModule_Create(&fastcore_module);
    if (mod == NULL)
        return NULL;
    Py_INCREF(BudgetExceeded);
    if (PyModule_AddObject(mod, "BudgetExceeded", BudgetExceeded) < 0) {
        Py_DECREF(BudgetExceeded);
        goto fail;
    }
    if (PyModule_AddStringConstant(mod, "BACKEND_NAME", "fast") < 0
        || PyModule_AddIntConstant(mod, "MODE_ALL", MODE_ALL) < 0
        || PyModule_AddIntConstant(mod, "MODE_TRIANGLE_FREE", MODE_TRIANGLE_FREE) < 0)
        goto fail;
    PyObject *names = PyTuple_New(NSCREEN);
    if (names == NULL)
        goto fail;
    for (int i = 0; i < NSCREEN; i++) {
        PyObject *name = PyUnicode_FromString(SCREEN_NAMES[i]);
        if (name == NULL) {
            Py_DECREF(names);
            goto fail;
        }
        PyTuple_SET_ITEM(names, i, name);
    }
    if (PyModule_AddObject(mod, "SCREEN_TESTS", names) < 0) {
        Py_DECREF(names);
        goto fail;
    }
    return mod;
fail:
    Py_DECREF(mod);
    return NULL;
}
