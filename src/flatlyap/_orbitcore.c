/* The compiled half of the orbit core: the canonical form of a pair, the
 * breadth-first closure of a canonical pair under T and S, the
 * exhaustive scan for pairs with a given commutator cycle type, and the
 * orbit partition of the scan's key sets.
 *
 * The closure makes only the two canonical images of each key and notes
 * their indices (fl_scan_step): a closed orbit is a key set of one orbit
 * with its image table made, which fl_set_partition finishes in one walk
 * of its T-cycles (cusps), as it does any key set.  The keys
 * (fl_scan_keys) stay in the closure until they are read, and
 * fl_scan_cusp_list copies the cusps, in walk order, into a buffer the
 * caller owns; kernel.py sorts them.  Keys have one order, memcmp over
 * their bytes: it picks each orbit's and each cusp's least key.
 *
 * kernel.py builds this file into a shared library, calls it through
 * ctypes and holds the pure-Python oracle of every function here; the
 * two must agree byte for byte.  A pair of 0-based image arrays (r, u)
 * of degree d <= 255 is packed as the 2d-byte key r || u.  kernel.py
 * passes buffers of the stated lengths; fl_canonical checks that r and u
 * are permutations, fl_scan_new takes only keys that fl_canonical
 * produced, and fl_enum_new takes permutations and cycle types that
 * kernel.py has checked.  The scan's key sets outlive it: fl_enum_take
 * hands each one over as the hash table the scan filled, and
 * fl_set_partition splits it into orbits by the set indices of the T and
 * S images of its keys, with no closure.  fl_scan_step, fl_enum_step
 * and fl_set_partition may each run a helper thread, which they join
 * before they return; every other function runs on its caller's thread
 * alone, and several threads may read one finished closure at once.
 */
#define _GNU_SOURCE       /* sched_getaffinity, sched_getcpu, CPU_COUNT */
#include <limits.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned char u8;

enum {
    ST_DONE = 0,          /* closure complete */
    ST_MORE = 1,          /* step budget spent, frontier not empty */
    ST_CAP = -1,          /* a new element would exceed max_size */
    ST_NOMEM = -2,
    ST_AREA = -3,         /* cylinder areas do not add up to d */
    ST_DISCONNECTED = -4, /* a pair that is not transitive */
    ST_RANGE = -5,        /* images that are not a permutation of 0..d-1 */
    ST_OPEN = -7          /* a key set not closed under T and S, or used out of turn */
};

#define UNSET 0xff        /* no label yet; labels are 0..d-1 <= 254 */

/* Least relabelling of (r, u) by BFS order (r first, then u) over all
 * base squares, into out[0..2d).  Both halves of a base's key are written
 * as its BFS goes, and the base is abandoned as soon as its r half
 * exceeds the best one so far.  Three exact rules leave out bases that
 * cannot give the least key; the first that admits a base decides, and
 * with none every base is tried:
 * - a base fixed by r gives first byte 0, any other 1, so only fixed
 *   bases are tried when r has a fixed point;
 * - with none, the second byte is label(r^2 b): 0 exactly when b lies on
 *   a 2-cycle of r, else 2 or more, so only 2-cycle bases are tried when
 *   r has one;
 * - with neither, r b and r^2 b are new squares, labelled 1 and then 2 or
 *   3: u b is labelled before r^2 b unless it is b or r b, and takes
 *   label 2.  So the second byte is 2 exactly when u b is b, r b or r^2 b,
 *   else 3, and only such bases are tried when one exists.
 * Returns 0, or ST_DISCONNECTED when the pair is not transitive. */
static int canonical(int d, const u8 *r, const u8 *u, u8 *out)
{
    u8 label[256], order[256], cand[512], bases[3][256];
    int count[3] = {0, 0, 0}, have = 0;
    /* the bases of each rule, listed without a branch: at small degrees
     * the tests are too irregular for the CPU to predict */
    for (int x = 0; x < d; x++) {
        int rx = r[x], rrx = r[rx], ux = u[x];
        bases[0][count[0]] = (u8)x;
        count[0] += rx == x;
        bases[1][count[1]] = (u8)x;
        count[1] += rrx == x;
        bases[2][count[2]] = (u8)x;
        count[2] += (ux == x) | (ux == rx) | (ux == rrx);
    }
    int rule = count[0] ? 0 : count[1] ? 1 : 2;
    if (!count[rule])   /* no rule admits a base: every base */
        for (; count[2] < d; count[2]++)
            bases[2][count[2]] = (u8)count[2];
    for (int t = 0; t < count[rule]; t++) {
        int base = bases[rule][t];
        memset(label, UNSET, (size_t)d);
        label[base] = 0;
        order[0] = (u8)base;
        int filled = 1;
        int cmp = have ? 0 : -1;   /* r half against out[], so far */
        for (int i = 0; i < filled; i++) {
            int x = order[i], y = r[x];
            if (label[y] == UNSET) {
                label[y] = (u8)filled;
                order[filled++] = (u8)y;
            }
            cand[i] = label[y];
            if (cmp == 0 && cand[i] != out[i]) {
                cmp = cand[i] > out[i] ? 1 : -1;
                if (cmp > 0)
                    break;
            }
            y = u[x];
            if (label[y] == UNSET) {
                label[y] = (u8)filled;
                order[filled++] = (u8)y;
            }
            cand[d + i] = label[y];
        }
        if (cmp > 0)
            continue;
        /* a full search from the first base decides transitivity */
        if (filled != d)
            return ST_DISCONNECTED;
        if (cmp < 0 || memcmp(cand + d, out + d, (size_t)d) < 0) {
            memcpy(out, cand, (size_t)(2 * d));
            have = 1;
        }
    }
    return 0;
}

/* Adds ``weight`` to the entry w * (d + 1) + h of hist for every
 * horizontal cylinder of width w and height h, see
 * orbits.horizontal_cylinders.  Returns 0, or ST_AREA when their areas do
 * not add up to d. */
static int cylinders(int d, const u8 *r, const u8 *u, long *hist, long weight)
{
    int row_of[256], first[256], width[256], above[256];
    u8 has_below[256], seen[256];
    int n = 0, area = 0;
    for (int x = 0; x < d; x++)
        row_of[x] = -1;
    for (int start = 0; start < d; start++) {
        if (row_of[start] >= 0)
            continue;
        int len = 0, x = start;
        do {
            row_of[x] = n;
            len++;
            x = r[x];
        } while (x != start);
        first[n] = start;
        width[n++] = len;
    }
    memset(has_below, 0, (size_t)n);
    memset(seen, 0, (size_t)n);
    for (int i = 0; i < n; i++) {
        int j = first[i], glued = 1;
        do {
            if (u[r[j]] != r[u[j]]) {
                glued = 0;
                break;
            }
            j = r[j];
        } while (j != first[i]);
        above[i] = glued ? row_of[u[first[i]]] : -1;
        if (glued)
            has_below[above[i]] = 1;
    }
    /* chains from a bottom row first, then closed loops of rows */
    for (int pass = 0; pass < 2; pass++)
        for (int i = 0; i < n; i++) {
            if (seen[i] || (pass == 0 && has_below[i]))
                continue;
            int h = 0;
            for (int j = i; j >= 0 && !seen[j]; j = above[j]) {
                seen[j] = 1;
                h++;
            }
            hist[width[i] * (d + 1) + h] += weight;
            area += width[i] * h;
        }
    return area == d ? 0 : ST_AREA;
}

/* -- breadth-first closure -------------------------------------------- */

struct scan {
    int d, k;           /* degree and key length 2d */
    long n, head;       /* keys found, keys expanded */
    long room;          /* keys the arrays hold */
    u8 *keys;           /* n keys in discovery order */
    uint32_t *img[2];   /* closures only, until their finish: the T and S
                         * images of each expanded key, as in struct parting */
    uint32_t *slots;    /* open addressing: key index + 1, 0 when free;
                         * NULL once a closure's finish has begun */
    size_t mask;        /* slot count - 1, a power of two less one */
    /* fl_scan_step: what expand() made of the keys of a batch, on two
     * sides of BATCH keys each, the caller's and the helper's */
    u8 *images;         /* T, S images, canonical: 2 per key */
    struct made *made;  /* the rest: 1 per key */
    struct parting *part;   /* key sets only: fl_set_partition's state */
};

/* What expand() made of key b of a batch, besides its images. */
struct made {
    size_t hash[2];     /* of the T and the S image */
    int status;         /* 0, or ST_DISCONNECTED: nothing to visit */
};

/* keys fl_scan_step expands before it visits their images, keys one
 * thread claims at a time while a helper thread runs (alone, the caller
 * claims whole batches), and the keys a step must expand for sure to
 * start the helper */
enum { BATCH = 256, CHUNK = 8, HELPER_MIN = 2 * BATCH };

static size_t hash(const u8 *key, int k)
{
    uint64_t h = 1469598103934665603u;    /* FNV-1a */
    for (int i = 0; i < k; i++)
        h = (h ^ key[i]) * 1099511628211u;
    return (size_t)(h ^ (h >> 29));
}

/* Room for ``extra`` more keys in the key arrays (keys, and img when
 * there is one), doubling them as often as needed; 0 or ST_NOMEM. */
static int grow(struct scan *s, long extra)
{
    long room = s->room;
    while (room < s->n + extra)
        room *= 2;
    if (room == s->room)
        return 0;
    u8 *keys = realloc(s->keys, (size_t)room * (size_t)s->k);
    if (!keys)
        return ST_NOMEM;
    s->keys = keys;
    for (int c = 0; c < 2 && s->img[c]; c++) {
        uint32_t *img = realloc(s->img[c], (size_t)room * sizeof *img);
        if (!img)
            return ST_NOMEM;
        s->img[c] = img;
    }
    s->room = room;
    return 0;
}

/* The slot of key, whose hash is h: the one that holds it, or the free
 * one where its search ends.  Inline, so that visit() searches without a
 * call on the closure's hot path. */
static inline size_t probe(const struct scan *s, const u8 *key, size_t h)
{
    size_t i = h & s->mask;
    while (s->slots[i] && memcmp(s->keys + (long)(s->slots[i] - 1) * s->k, key, (size_t)s->k))
        i = (i + 1) & s->mask;
    return i;
}

/* Replaces the slot table with one of mask + 1 slots over the n keys,
 * keeping the first of two equal keys and closing the gap the other
 * leaves; 0 or ST_NOMEM. */
static int rehash(struct scan *s, size_t mask)
{
    uint32_t *slots = calloc(mask + 1, sizeof(uint32_t));
    if (!slots)
        return ST_NOMEM;
    free(s->slots);
    s->slots = slots;
    s->mask = mask;
    long n = 0;
    for (long j = 0; j < s->n; j++) {
        const u8 *key = s->keys + j * s->k;
        size_t i = probe(s, key, hash(key, s->k));
        if (slots[i])
            continue;
        if (n < j)   /* only then: a closure's helper may be reading keys */
            memcpy(s->keys + n * s->k, key, (size_t)s->k);
        slots[i] = (uint32_t)++n;
    }
    s->n = n;
    return 0;
}

/* Room for one more key: grows the key arrays when full and doubles the
 * slot table when it would pass half full. */
static int reserve(struct scan *s)
{
    if ((unsigned long)s->n >= UINT32_MAX - 1)   /* slots hold index + 1 */
        return ST_NOMEM;
    if (s->n == s->room) {
        int st = grow(s, 1);
        if (st)
            return st;
    }
    if (2 * (size_t)(s->n + 1) > s->mask + 1)
        return rehash(s, 2 * (s->mask + 1) - 1);
    return 0;
}

/* Index of key, whose hash is h, in the visited set, appending it when
 * new; a negative status when it is new and max_size keys are already
 * stored. */
static long visit(struct scan *s, const u8 *key, size_t h, long max_size)
{
    int st = reserve(s);
    if (st)
        return st;
    size_t i = probe(s, key, h);
    if (s->slots[i])
        return (long)s->slots[i] - 1;
    if (s->n >= max_size)
        return ST_CAP;
    memcpy(s->keys + s->n * s->k, key, (size_t)s->k);
    s->slots[i] = (uint32_t)(s->n + 1);
    return s->n++;
}

static void parting_free(struct parting *p);

void fl_scan_free(struct scan *s)
{
    if (!s)
        return;
    parting_free(s->part);
    free(s->keys);
    free(s->img[0]);
    free(s->img[1]);
    free(s->slots);
    free(s->images);
    free(s->made);
    free(s);
}

/* An empty key set of degree d, without the closure's arrays; NULL when
 * out of memory. */
static struct scan *scan_alloc(int d)
{
    struct scan *s = calloc(1, sizeof *s);
    if (!s)
        return NULL;
    s->d = d;
    s->k = 2 * d;
    s->room = 1024;
    s->mask = 2047;
    s->keys = malloc((size_t)s->room * (size_t)s->k);
    s->slots = calloc(s->mask + 1, sizeof(uint32_t));
    if (!s->keys || !s->slots) {
        fl_scan_free(s);
        return NULL;
    }
    return s;
}

/* A closure holding only ``start``, a canonical key of degree d; NULL
 * when out of memory. */
struct scan *fl_scan_new(int d, const u8 *start)
{
    struct scan *s = scan_alloc(d);
    if (!s)
        return NULL;
    for (int c = 0; c < 2; c++)
        s->img[c] = malloc((size_t)s->room * sizeof *s->img[c]);
    s->images = malloc(2 * BATCH * 2 * (size_t)s->k);
    s->made = malloc(2 * BATCH * sizeof *s->made);
    if (!s->img[0] || !s->img[1] || !s->images || !s->made) {
        fl_scan_free(s);
        return NULL;
    }
    visit(s, start, hash(start, s->k), 1);
    return s;
}

/* The canonical T image (r, u r^-1) and S image (u^-1, r) of the key
 * r || u of degree d into img[0..4d); 0, or ST_DISCONNECTED.  T and S
 * generate the same group as r and u, so both images are transitive or
 * neither is. */
static int t_s_images(int d, const u8 *r, u8 *img)
{
    const u8 *u = r + d;
    u8 inv[256], moved[256];
    for (int x = 0; x < d; x++)
        inv[r[x]] = (u8)x;
    for (int x = 0; x < d; x++)
        moved[x] = u[inv[x]];
    for (int x = 0; x < d; x++)
        inv[u[x]] = (u8)x;
    return canonical(d, r, moved, img) || canonical(d, inv, r, img + 2 * d) ? ST_DISCONNECTED : 0;
}

/* Makes the images of key b of the batch that starts at ``first``, with
 * their hashes, on one side (0: the caller, 1: the helper).  That is all
 * the closure does per key: the cylinders are counted per T-cycle, by
 * fl_set_partition. */
static void expand(const struct scan *s, const u8 *first, long b, int side)
{
    int k = s->k;
    u8 *img = s->images + (side * BATCH + b) * 2 * k;
    struct made *m = s->made + side * BATCH + b;
    if (t_s_images(s->d, first + b * k, img)) {
        m->status = ST_DISCONNECTED;
        return;
    }
    m->status = 0;
    m->hash[0] = hash(img, k);
    m->hash[1] = hash(img + k, k);
}

/* -- the two threads of fl_scan_step --------------------------------------
 *
 * Making the images of a batch is most of the work, and each key's are
 * its own; only the visits must go in order.  So fl_scan_step publishes
 * each batch in one atomic claim word, and both the calling thread and,
 * on a machine with a CPU to spare, a helper thread take CHUNK keys at a
 * time from it and make their images, each into its own side of the
 * buffers.  The caller visits the chunks in order.  While the one it
 * must visit next is still being made by the helper, it makes the next
 * unclaimed one; when none is left, it waits a little and then makes
 * that chunk itself, so a helper that has lost its CPU never holds the
 * caller up for long.  Alone, the caller takes each whole batch as one
 * chunk, through the same loop.  The helper makes its chunks in claim
 * order and counts them when done, so the caller can tell which of them
 * are ready.  Before the key arrays move, the caller waits until every
 * chunk the helper has claimed is done: the helper reads keys only there. */

/* The claim word: index of the batch's first key << 32 | batch size << 16
 * | first key not yet claimed, or QUIT when the helper is to return. */
#define QUIT UINT64_MAX

struct crew {
    _Alignas(64) _Atomic uint64_t claim;
    _Alignas(64) _Atomic unsigned long made;   /* chunks the helper made */
    _Alignas(64) struct scan *s;
    long chunk;         /* keys per claim: CHUNK once the helper runs, else BATCH */
};

/* How many rounds the caller waits for a chunk the helper is making
 * before it makes that chunk itself. */
enum { PATIENCE = 64 };

static void pause_hint(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/* Claims the next chunk of the batch in w, the claim word as last read;
 * whether it did.  Keys are taken in order and cr->chunk at a time, so
 * chunk c is always the keys from c * cr->chunk on, up to the next chunk
 * or the end of the batch. */
static int take(struct crew *cr, uint64_t *w)
{
    if ((*w & 0xffff) >= (*w >> 16 & 0xffff))
        return 0;
    return atomic_compare_exchange_weak_explicit(&cr->claim, w, *w + (uint64_t)cr->chunk,
                                                 memory_order_acquire,
                                                 memory_order_relaxed);
}

/* Makes the images of the chunk that starts at the next key of the claim
 * word w into the given side. */
static void make_chunk(struct crew *cr, uint64_t w, int side)
{
    const struct scan *s = cr->s;
    long lo = (long)(w & 0xffff), size = (long)(w >> 16 & 0xffff);
    long hi = lo + cr->chunk < size ? lo + cr->chunk : size;
    const u8 *first = s->keys + (long)(w >> 32) * s->k;
    for (long b = lo; b < hi; b++)
        expand(s, first, b, side);
}

static void *help(void *arg)
{
    struct crew *cr = arg;
    unsigned spins = 0;
    for (;;) {
        uint64_t w = atomic_load_explicit(&cr->claim, memory_order_relaxed);
        if (w == QUIT)
            return NULL;
        if (take(cr, &w)) {
            make_chunk(cr, w, 1);
            atomic_fetch_add_explicit(&cr->made, 1, memory_order_release);
        } else {
            pause_hint();
            if (++spins % 256 == 0)   /* in case the caller needs this CPU */
                sched_yield();
        }
    }
}

/* Starts a helper thread that runs run(arg), when this thread may run on
 * more than one CPU: on the CPUs other than the one this thread is on (a
 * new thread is otherwise often placed beside its creator, where the two
 * would take turns), and with every signal blocked, so that they all
 * reach the caller; whether it did.  Elsewhere than on Linux it never
 * starts. */
static int start_helper(void *(*run)(void *), void *arg, pthread_t *helper)
{
#ifndef __linux__
    (void)run;
    (void)arg;
    (void)helper;
    return 0;
#else
    cpu_set_t cpus;
    pthread_attr_t attr;
    sigset_t all, old;
    int here = sched_getcpu();
    if (sched_getaffinity(0, sizeof cpus, &cpus) || CPU_COUNT(&cpus) < 2)
        return 0;
    if (here >= 0 && here < CPU_SETSIZE)
        CPU_CLR(here, &cpus);
    if (pthread_attr_init(&attr))
        return 0;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    int failed = pthread_attr_setaffinity_np(&attr, sizeof cpus, &cpus) ||
                 pthread_create(helper, &attr, run, arg);
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
    return !failed;
#endif
}

/* The side whose images hold chunk c of the batch the claim word was
 * last published for, once the chunk is made: where[c], the side of each
 * chunk of the batch found so far, or -1.  ``claims`` counts the helper's
 * chunks found so far; the helper makes them in that order. */
static int locate(struct crew *cr, long c, signed char *where, unsigned long *claims)
{
    for (int spins = 0; where[c] < 0; spins++) {
        uint64_t w = atomic_load_explicit(&cr->claim, memory_order_relaxed);
        if ((long)(w & 0xffff) == c * cr->chunk) {   /* not claimed yet */
            if (take(cr, &w)) {
                make_chunk(cr, w, 0);
                where[c] = 0;
            }
        } else if (atomic_load_explicit(&cr->made, memory_order_acquire) > *claims) {
            ++*claims;
            where[c] = 1;
        } else if (take(cr, &w)) {             /* a later chunk meanwhile */
            make_chunk(cr, w, 0);
            where[(long)(w & 0xffff) / cr->chunk] = 0;
        } else if (spins < PATIENCE) {
            pause_hint();
        } else {                               /* the helper is slow */
            ++*claims;
            make_chunk(cr, (w & ~(uint64_t)0xffff) | (uint64_t)(c * cr->chunk), 0);
            where[c] = 0;
        }
    }
    return where[c];
}

/* Expands at most ``budget`` keys in discovery order: visits each one's
 * T image (r, u r^-1), then its S image (u^-1, r), and records both
 * indices in img.  Returns a status from the enum above; ST_OPEN once
 * fl_set_partition has begun to finish the closure, or on a key set.
 *
 * Keys go in batches of at most BATCH that are already in the set, and
 * a batch in chunks: the images of a chunk are all made, by one thread,
 * before any is visited, so that the helper can make the chunks ahead in
 * parallel while the caller visits.  A key whose images could not be made
 * fails only once the images of the keys before it are visited, so the
 * first status in key order wins. */
int fl_scan_step(struct scan *s, long max_size, long budget)
{
    int k = s->k, st = 0, helping = 0, tried = 0;
    unsigned long claims = 0;   /* chunks the helper has claimed, so far as known */
    struct crew cr;
    pthread_t helper;
    if (!s->img[0])
        return ST_OPEN;
    cr.s = s;
    cr.chunk = BATCH;
    atomic_init(&cr.claim, 0);
    atomic_init(&cr.made, 0);
    while (!st && budget > 0 && s->head < s->n) {
        long batch = s->n - s->head;
        signed char where[BATCH / CHUNK];
        memset(where, -1, sizeof where);
        if (batch > budget)
            batch = budget;
        if (!tried && batch >= HELPER_MIN) {
            tried = 1;
            cr.chunk = CHUNK;   /* before the helper reads it */
            helping = start_helper(help, &cr, &helper);
            if (!helping)
                cr.chunk = BATCH;
        }
        if (batch > BATCH)
            batch = BATCH;
        if (s->n + 2 * batch > s->room)
            while (atomic_load_explicit(&cr.made, memory_order_acquire) != claims)
                pause_hint();
        if ((st = grow(s, 2 * batch)))
            break;
        atomic_store_explicit(&cr.claim, (uint64_t)s->head << 32 | (uint64_t)batch << 16,
                              memory_order_release);
        for (long c = 0, chunk = cr.chunk; !st && c * chunk < batch; c++) {
            long end = (c + 1) * chunk < batch ? (c + 1) * chunk : batch;
            int side = locate(&cr, c, where, &claims);
            const u8 *images = s->images + side * BATCH * 2 * k;
            const struct made *made = s->made + side * BATCH;
            for (long b = c * chunk; b < end; b++) {
                if ((st = made[b].status))
                    break;
                for (int i = 0; i < 2; i++) {
                    long j = visit(s, images + (2 * b + i) * k, made[b].hash[i], max_size);
                    if (j < 0) {
                        st = (int)j;
                        break;
                    }
                    s->img[i][s->head] = (uint32_t)j;
                }
                if (st)
                    break;
                s->head++;
            }
        }
        budget -= batch;
    }
    if (helping) {
        atomic_store_explicit(&cr.claim, QUIT, memory_order_relaxed);
        pthread_join(helper, NULL);
    }
    if (st)
        return st;
    return s->head < s->n ? ST_MORE : ST_DONE;
}

/* -- key sets and their orbit partition -----------------------------------
 *
 * A key set is a struct scan that scan_alloc made and the exhaustive scan
 * filled by visit(), or a closure that fl_scan_step completed.
 * fl_enum_take hands a scan's set out with its slot table, so membership
 * is one probe by the hash visit() uses.  fl_set_partition splits a key
 * set into its SL(2,Z) orbits over set indices alone, without a copy of
 * any key and without a closure:
 *
 * 1. The image table: for every index i, the set index of the canonical
 *    T image and of the canonical S image of key i, each found by one
 *    probe (MISS when it is not in the set, LOST when it is not
 *    transitive).  The rows are independent and the set is only read, so
 *    a step of at least PART_HELPER_MIN rows shares them with a helper
 *    thread (start_helper), ROWS at a time from one atomic counter, and
 *    joins it before it returns.  The helper allocates nothing.  A
 *    closure made its table as it went, and starts at step 2.
 * 2. The orbits.  Both columns must be permutations of the set, else
 *    ST_OPEN: on a set closed under T and S they are, and a key that is
 *    missing, repeated or not canonical breaks one of them.  The orbits
 *    are then the components of the two columns, each walked from the
 *    first index no orbit holds, and the cusps the cycles of the T
 *    column.  The walk takes in whole T-cycles, and stacks the S image
 *    of each key that no orbit holds yet; each cycle adds the cylinders
 *    of its first key, weighted by its width, to the orbit's histogram,
 *    and its (width, least key) to the orbit's cycle list.
 *
 * A step returns to the caller after ``budget`` rows or keys; the state
 * stays with the set, so a partition cut short between steps goes on at
 * the next call, and one that has finished starts over.  A closure is
 * finished once: its slot table and image table go to its finish.  One
 * partition of a set runs at a time. */

/* an image outside the set, and one that is not transitive: neither is a
 * set index, since reserve() keeps those below UINT32_MAX - 1 */
#define MISS UINT32_MAX
#define LOST (UINT32_MAX - 1)

/* rows a thread claims at a time, and rows a step needs to start the
 * helper (256 did no better on the key sets of d <= 8) */
enum { ROWS = 8, PART_HELPER_MIN = 1024 };
enum { P_IMAGES, P_CHECK, P_ORBITS, P_DONE };
/* per key: the T column reaches it, the S column reaches it, an orbit
 * holds it */
enum { HIT_T = 1, HIT_S = 2, HELD = 4 };

struct parting {
    int phase;
    long at;            /* the next index of the phase's pass */
    uint32_t *img[2];   /* per key: its T image's index, and its S image's */
    u8 *mark;           /* per key: HIT_T | HIT_S | HELD */
    /* stack[0 .. filled): S images of the open orbit's keys that no orbit
     * held when stacked; a key is the S image of one, so n at most */
    uint32_t *stack;
    long filled;
    long size, least;   /* the open orbit's keys and least key */
    long cusps, cycle_room;   /* its T-cycles, (width, least key) each in cycles[] */
    uint32_t *cycles;
    long *hist;         /* its cylinder counts, by w * (d + 1) + h */
    /* out[0] = used - 1, then per orbit: least key, size, cusps, the
     * count of nonzero histogram cells, and (cell, count) for each */
    long *out, used, room;
};

static void parting_free(struct parting *p)
{
    if (!p)
        return;
    free(p->img[0]);
    free(p->img[1]);
    free(p->mark);
    free(p->stack);
    free(p->cycles);
    free(p->hist);
    free(p->out);
    free(p);
}

/* The state of a new partition of s.  A closure's image table and slot
 * table go to it, and it starts at the check. */
static struct parting *parting_new(struct scan *s)
{
    struct parting *p = calloc(1, sizeof *p);
    if (!p)
        return NULL;
    size_t n = (size_t)s->n, cells = (size_t)(s->d + 1) * (size_t)(s->d + 1);
    if (s->img[0]) {
        p->phase = P_CHECK;
        free(s->slots);   /* only the search reads it */
        s->slots = NULL;
    }
    for (int c = 0; c < 2; c++) {   /* one spare entry each: malloc(0) may return NULL */
        p->img[c] = s->img[c] ? s->img[c] : malloc((n + 1) * sizeof *p->img[c]);
        s->img[c] = NULL;
    }
    p->mark = calloc(n + 1, 1);
    p->stack = malloc((n + 1) * sizeof *p->stack);
    p->cycle_room = 64;
    p->cycles = malloc(2 * (size_t)p->cycle_room * sizeof *p->cycles);
    p->hist = calloc(cells, sizeof *p->hist);
    p->room = 4 * (long)cells;
    p->out = malloc((size_t)p->room * sizeof *p->out);
    p->used = 1;
    if (!p->img[0] || !p->img[1] || !p->mark || !p->stack || !p->cycles || !p->hist || !p->out) {
        parting_free(p);
        return NULL;
    }
    return p;
}

/* Phase 1, shared by the caller and the helper. */
struct imager {
    _Alignas(64) _Atomic long next;   /* the first row nobody has claimed */
    const struct scan *s;
    uint32_t **img;
    long end;
};

/* Fills the image rows of im, ROWS at a time, until none is left: first
 * the images of a claim, then a probe for each.  Probing right after
 * each key's images took phase 1 about 1.5 times as long at H(8),
 * d=11. */
static void image_rows(struct imager *im)
{
    const struct scan *s = im->s;
    int k = s->k;
    u8 made[ROWS][1024];
    size_t h[ROWS][2];
    int lost[ROWS];
    for (;;) {
        long lo = atomic_fetch_add_explicit(&im->next, ROWS, memory_order_relaxed);
        if (lo >= im->end)
            return;
        long rows = lo + ROWS < im->end ? ROWS : im->end - lo;
        for (long b = 0; b < rows; b++) {
            if ((lost[b] = t_s_images(s->d, s->keys + (lo + b) * k, made[b])))
                continue;
            for (int c = 0; c < 2; c++)
                h[b][c] = hash(made[b] + c * k, k);
        }
        for (long b = 0; b < rows; b++)
            for (int c = 0; c < 2; c++) {
                uint32_t j = lost[b] ? 0 : s->slots[probe(s, made[b] + c * k, h[b][c])];
                im->img[c][lo + b] = lost[b] ? LOST : j ? j - 1 : MISS;
            }
    }
}

static void *help_image(void *arg)
{
    image_rows(arg);
    return NULL;
}

/* Fills the image rows from p->at on, at most *budget of them. */
static void make_images(const struct scan *s, struct parting *p, long *budget)
{
    struct imager im = {.s = s, .img = p->img};
    pthread_t helper;
    im.end = s->n - p->at < *budget ? s->n : p->at + *budget;
    atomic_init(&im.next, p->at);
    int helping = im.end - p->at >= PART_HELPER_MIN && start_helper(help_image, &im, &helper);
    image_rows(&im);
    if (helping)
        pthread_join(helper, NULL);
    *budget -= im.end - p->at;
    p->at = im.end;
    if (p->at == s->n) {
        p->phase = P_CHECK;
        p->at = 0;
    }
}

/* Checks image rows from p->at on: each image in the set and transitive,
 * and no key the image of two keys in one column. */
static int check_images(const struct scan *s, struct parting *p, long *budget)
{
    long end = s->n - p->at < *budget ? s->n : p->at + *budget;
    for (long i = p->at; i < end; i++)
        for (int c = 0; c < 2; c++) {
            uint32_t j = p->img[c][i];
            if (j == LOST)
                return ST_DISCONNECTED;
            if (j == MISS || p->mark[j] & (HIT_T << c))
                return ST_OPEN;
            p->mark[j] |= (u8)(HIT_T << c);
        }
    *budget -= end - p->at;
    p->at = end;
    if (p->at == s->n) {
        p->phase = P_ORBITS;
        p->at = 0;
    }
    return 0;
}

/* Takes the T-cycle of x, which no orbit holds, into the open orbit: the
 * S image of each key onto the stack unless an orbit holds it, the
 * cycle's (width, least key) onto the cycle list, and its cylinders,
 * which T, a horizontal shear, keeps on every key of the cycle, weighted
 * by its width, into the orbit's histogram.  Each key is compared with
 * the cycle's least, and that with the orbit's once. */
static int hold_cycle(const struct scan *s, struct parting *p, uint32_t x, long *budget)
{
    size_t k = (size_t)s->k;
    const u8 *keys = s->keys;
    uint32_t least = x, width = 0, y = x;
    if (p->cusps == p->cycle_room) {
        uint32_t *cycles = realloc(p->cycles, 4 * (size_t)p->cycle_room * sizeof *cycles);
        if (!cycles)
            return ST_NOMEM;
        p->cycles = cycles;
        p->cycle_room *= 2;
    }
    /* the T column is a permutation, so the walk comes back to x; an S
     * image is stacked without a branch, and stays unless an orbit holds it */
    do {
        p->mark[y] |= HELD;
        p->stack[p->filled] = p->img[1][y];
        p->filled += !(p->mark[p->img[1][y]] & HELD);
        if (memcmp(keys + y * k, keys + least * k, k) < 0)
            least = y;
        width++;
    } while ((y = p->img[0][y]) != x);
    if (memcmp(keys + least * k, keys + (size_t)p->least * k, k) < 0)
        p->least = least;
    p->cycles[2 * p->cusps] = width;
    p->cycles[2 * p->cusps++ + 1] = least;
    p->size += width;
    *budget -= width;
    return cylinders(s->d, keys + x * k, keys + x * k + s->d, p->hist, width);
}

/* Appends the record of the open orbit, which is complete, to out[] and
 * clears its histogram; its cycle list stays until the next orbit. */
static int close_orbit(const struct scan *s, struct parting *p)
{
    long cells = (long)(s->d + 1) * (s->d + 1);
    if (p->used + 4 + 2 * cells > p->room) {   /* room >= 4 cells: once is enough */
        long *out = realloc(p->out, 2 * (size_t)p->room * sizeof *out);
        if (!out)
            return ST_NOMEM;
        p->out = out;
        p->room *= 2;
    }
    long *rec = p->out + p->used, n = 0;
    rec[0] = p->least;
    rec[1] = p->size;
    rec[2] = p->cusps;
    for (long c = 0; c < cells; c++)
        if (p->hist[c]) {
            rec[4 + 2 * n] = c;
            rec[5 + 2 * n++] = p->hist[c];
            p->hist[c] = 0;
        }
    rec[3] = n;
    p->used += 4 + 2 * n;
    p->size = 0;
    return 0;
}

/* Walks orbits until the budget is spent or every key is held: a unit
 * per key held and per S image taken off the stack. */
static int walk_orbits(const struct scan *s, struct parting *p, long *budget)
{
    int st = 0;
    while (!st && *budget > 0) {
        if (p->filled) {   /* the last S image stacked */
            uint32_t y = p->stack[--p->filled];
            --*budget;
            if (!(p->mark[y] & HELD))
                st = hold_cycle(s, p, y, budget);
        } else if (p->size) {
            st = close_orbit(s, p);
        } else {   /* the next orbit, from the first key no orbit holds */
            while (p->at < s->n && p->mark[p->at] & HELD)
                p->at++;
            if (p->at == s->n) {
                p->phase = P_DONE;
                break;
            }
            p->least = p->at;
            p->cusps = 0;
            st = hold_cycle(s, p, (uint32_t)p->at, budget);
        }
    }
    return st;
}

/* Does at most ``budget`` rows or keys of the orbit partition of the key
 * set s, see above.  Returns ST_MORE; ST_DONE, with *out set to the
 * records, which stay s's until the next call or fl_scan_free; ST_OPEN
 * when the set is not closed under T and S, or s is a closure that is
 * not complete or already finished; ST_DISCONNECTED; ST_AREA; or
 * ST_NOMEM.  A failure drops the state, so the next call starts over. */
int fl_set_partition(struct scan *s, long budget, const long **out)
{
    struct parting *p = s->part;
    int st = 0;
    if (!p || p->phase == P_DONE) {
        if (!s->slots || (s->img[0] && s->head < s->n))
            return ST_OPEN;
        parting_free(p);
        if (!(p = s->part = parting_new(s)))
            return ST_NOMEM;
    }
    while (!st && budget > 0 && p->phase != P_DONE) {
        if (p->phase == P_IMAGES)
            make_images(s, p, &budget);
        else if (p->phase == P_CHECK)
            st = check_images(s, p, &budget);
        else
            st = walk_orbits(s, p, &budget);
    }
    if (st) {
        parting_free(p);
        s->part = NULL;
        return st;
    }
    if (p->phase != P_DONE)
        return ST_MORE;
    /* only the records and the last orbit's cycle list are left to read */
    free(p->img[0]);
    free(p->img[1]);
    free(p->mark);
    free(p->stack);
    p->img[0] = p->img[1] = p->stack = NULL;
    p->mark = NULL;
    p->out[0] = p->used - 1;
    *out = p->out;
    return ST_DONE;
}

/* Copies the (width, least key index) pair of each T-cycle of the last
 * orbit fl_set_partition walked in s, all of a closure, in walk order
 * into pairs[0 .. 2 cusp count), a buffer the caller owns.  It writes
 * nothing else, so threads may read one closure's list at once.  Returns
 * 0, or ST_OPEN when no partition of s has finished. */
int fl_scan_cusp_list(const struct scan *s, long *pairs)
{
    const struct parting *p = s->part;
    if (!p || p->phase != P_DONE)
        return ST_OPEN;
    for (long i = 0; i < 2 * p->cusps; i++)
        pairs[i] = p->cycles[i];
    return 0;
}

long fl_scan_size(const struct scan *s) { return s->n; }
const u8 *fl_scan_keys(const struct scan *s) { return s->keys; }

/* Canonical key of (r, u) into out[0..2d); 0, ST_RANGE or
 * ST_DISCONNECTED. */
int fl_canonical(int d, const u8 *r, const u8 *u, u8 *out)
{
    u8 hit[256] = {0};   /* bit 0: an image of r, bit 1: of u */
    for (int x = 0; x < d; x++) {
        if (r[x] >= d || u[x] >= d || hit[r[x]] & 1 || hit[u[x]] & 2)
            return ST_RANGE;
        hit[r[x]] |= 1;
        hit[u[x]] |= 2;
    }
    return canonical(d, r, u, out);
}

/* -- exhaustive scan -------------------------------------------------- */

/* Every pair (r, u) with r one of the given ``right`` permutations whose
 * commutator u^-1 r^-1 u r has one of the target cycle types goes, by
 * canonical key, into that target's key set.
 *
 * The commutator is s r with s = u^-1 r^-1 u, a conjugate of r, so each
 * right walks its conjugacy class for s, d!/z elements with z the order
 * of the centralizer C(r), where a walk of u would test d!.  s r fixes
 * the symbols x where s leaves r^-1 alone at r(x), so the walk fills s
 * one position at a time and drops each branch whose count of symbols
 * where s leaves r^-1 cannot reach the support of any target
 * (walk_advance); the few complete s left have the cycle type of s r
 * tested.  The u of one s are those with u s = r^-1 u; they map
 * each cycle of s onto a cycle of r^-1 of the same length, at any
 * rotation, z of them in all.  Conjugating by c in C(r) fixes r and
 * carries the u of s onto those of c s c^-1, which give the same classes,
 * so a survivor s is expanded only when it is the least image array among
 * its conjugates under C(r).
 *
 * Two cursors split the walk by right.  A cursor holds the walk of one
 * right and a key set per target of its own; when it finishes a right,
 * it claims the next one nobody has from one atomic counter.  A
 * canonical key keeps the cycle type of r, so rights of one cycle type
 * give the same classes, which the two sets of a target may then share;
 * fl_enum_take joins them into one set, which keeps each key once.
 * fl_enum_step works the first cursor on the calling thread.  Once the
 * scan has done SCAN_HELPER_MIN units, when the step has that many left
 * and there are rights for both cursors, a helper thread (start_helper)
 * works the second one, SLICE units at a time, until the caller has
 * spent its budget or finds no right left; then the caller stops and
 * joins it.  Otherwise, and on one CPU, the caller works the cursors in
 * turn alone, through the same loop. */

/* The cycles of a permutation, longest first: cycle i is
 * sym[off[i] .. off[i] + len[i]), each symbol followed by its image. */
struct cycles {
    int n;
    u8 off[256], len[256], sym[256];
};

/* A map from the symbols of one struct cycles onto those of another with
 * the same lengths: cycle i goes onto cycle to[i], a cycle of its own
 * length, its first symbol onto symbol rot[i] of that cycle. */
struct matching {
    u8 to[256], rot[256];
};

enum { PH_TEST, PH_LEAST, PH_EXPAND };

/* units of work the calling thread does alone before the helper may
 * start, units the helper works between two looks at its stop flag, and
 * keys fl_enum_take moves between two shrinks of the second set's array */
enum { SCAN_HELPER_MIN = 4096, SLICE = 1024, PIECE = 1 << 16 };

/* One walker of the scan: the class walk of the right it holds, and the
 * key sets that the classes of all its rights go into. */
struct cursor {
    _Alignas(64) int right;   /* index of the right it walks, -1 for none */
    struct scan **sets; /* one key set per target */
    int *hits;          /* the nhits targets the survivor s matched */
    int nhits;
    /* PH_TEST: walk to the next s and test it; PH_LEAST: compare s with
     * its conjugate under the element of C(r) after m; PH_EXPAND: visit
     * the pair (r, u) of m */
    int phase;
    struct cycles rc, ric, sc;   /* of r, of r^-1 (slot by slot), of s */
    struct matching m;
    /* the class walk: s in cycle notation as seq[0..d), each cycle
     * starting at its least symbol, which is the least one unused; the
     * cycle through position p starts at position head[p] and is
     * clen[head[p]] long; left[l] cycles of length l are still to open;
     * the values of s set by positions 0..p leave r^-1 (rinv) at dis[p]
     * symbols.  The walk stands at position at, which holds a choice to
     * replace when redo is set and is empty otherwise. */
    int at, redo;
    u8 seq[256], head[256], clen[256], used[256], left[256], s[256], rinv[256], dis[256];
};

struct enumeration {
    int d, nrights, ntargets;
    u8 *rights;         /* nrights images of length d */
    u8 *targets;        /* ntargets rows of d + 1 cycle counts by length */
    /* the supports (symbols a target's commutator moves) of the targets
     * lie in least..most; want[f] when some target fixes f symbols */
    int least, most;
    u8 want[256];
    long spent;         /* units the calling thread has worked */
    int helper_status;  /* how the helper's last run ended: 0 or ST_NOMEM */
    _Alignas(64) _Atomic int next;   /* the first right no cursor has claimed */
    _Atomic int stop;   /* set when the helper is to return */
    struct cursor cur[2];   /* the caller's, then the helper's */
};

void fl_enum_free(struct enumeration *e)
{
    if (!e)
        return;
    for (int i = 0; i < 2; i++) {
        struct cursor *c = &e->cur[i];
        if (c->sets)
            for (int t = 0; t < e->ntargets; t++)
                fl_scan_free(c->sets[t]);
        free(c->sets);
        free(c->hits);
    }
    free(e->rights);
    free(e->targets);
    free(e);
}

/* The cycles of p into out, longest first and otherwise by least symbol,
 * each listed from its least symbol. */
static void cycles_of(int d, const u8 *p, struct cycles *out)
{
    u8 seen[256], first[256], len[256], order[256];
    int count[256], slot[256], n = 0;
    memset(seen, 0, (size_t)d);
    memset(count, 0, (size_t)(d + 1) * sizeof *count);
    for (int x = 0; x < d; x++) {
        if (seen[x])
            continue;
        int l = 0;
        for (int y = x; !seen[y]; y = p[y]) {
            seen[y] = 1;
            l++;
        }
        first[n] = (u8)x;
        len[n++] = (u8)l;
        count[l]++;
    }
    for (int l = d, at = 0; l >= 1; l--) {
        slot[l] = at;
        at += count[l];
    }
    for (int i = 0; i < n; i++)
        order[slot[len[i]]++] = (u8)i;
    out->n = n;
    for (int j = 0, at = 0; j < n; j++) {
        int i = order[j], y = first[i];
        out->off[j] = (u8)at;
        out->len[j] = len[i];
        for (int k = 0; k < len[i]; k++, y = p[y])
            out->sym[at++] = (u8)y;
    }
}

static void matching_first(struct matching *m, int n)
{
    for (int i = 0; i < n; i++) {
        m->to[i] = (u8)i;
        m->rot[i] = 0;
    }
}

/* Steps a[0..n) to its lexicographic successor; after the last one,
 * back to ascending order, returning 0. */
static int next_order(u8 *a, int n)
{
    int i = n - 2;
    while (i >= 0 && a[i] > a[i + 1])
        i--;
    if (i >= 0) {
        int j = n - 1;
        while (a[j] < a[i])
            j--;
        u8 swap = a[i];
        a[i] = a[j];
        a[j] = swap;
    }
    for (int lo = i + 1, hi = n - 1; lo < hi; lo++, hi--) {
        u8 swap = a[lo];
        a[lo] = a[hi];
        a[hi] = swap;
    }
    return i >= 0;
}

/* Steps m to the next map of the cycles shaped as c, rotations fastest;
 * after the last one, back to the first, returning 0. */
static int matching_next(struct matching *m, const struct cycles *c)
{
    for (int i = c->n - 1; i >= 0; i--) {
        if (++m->rot[i] < c->len[i])
            return 1;
        m->rot[i] = 0;
    }
    /* the cycles of one length are adjacent: reorder one run of them */
    for (int end = c->n; end > 0;) {
        int begin = end - 1;
        while (begin > 0 && c->len[begin - 1] == c->len[end - 1])
            begin--;
        if (next_order(m->to + begin, end - begin))
            return 1;
        end = begin;
    }
    return 0;
}

/* out[x] for every symbol x of src under the map m onto dst. */
static void matching_apply(const struct matching *m, const struct cycles *src,
                           const struct cycles *dst, u8 *out)
{
    for (int i = 0; i < src->n; i++) {
        const u8 *a = src->sym + src->off[i], *b = dst->sym + dst->off[m->to[i]];
        int l = src->len[i], j = m->rot[i];
        for (int k = 0; k < l; k++) {
            out[a[k]] = b[j];
            if (++j == l)
                j = 0;
        }
    }
}

/* Steps the walk to the next element s of the class whose commutator
 * s r can have a target's cycle type, spending one unit of *budget per
 * position it fills.  Positions take their choices in order: a cycle's
 * head is the least unused symbol and chooses the length of its cycle
 * among those left, shortest first; any other position chooses an unused
 * symbol, least first.  s r fixes x exactly when s(y) = r^-1(y) for
 * y = r(x), so a target that fixes f symbols needs s to leave r^-1 at
 * d - f symbols, its support.  A branch is dropped once the values of s
 * it has set leave r^-1 at more symbols than the largest support, or
 * once the values still unset cannot bring them up to the smallest; a
 * complete s is kept when want[] holds its fixed points.  Returns 1 at a
 * kept s, 0 when the class is done and -1 when the budget runs out; the
 * next call goes on from where this one stopped. */
static int walk_advance(const struct enumeration *e, struct cursor *c, long *budget)
{
    int d = e->d, p = c->at;
    while (*budget > 0) {
        int x, h;
        if (c->redo) {   /* take back position p's choice and make its next */
            x = c->seq[p];
            c->used[x] = 0;
            h = c->head[p];
            int more;
            if (h == p) {
                int l = c->clen[p];
                c->left[l]++;
                while (++l <= d && !c->left[l])
                    ;
                if ((more = l <= d)) {
                    c->left[l]--;
                    c->clen[p] = (u8)l;
                }
            } else if (c->dis[p - 1] == e->most) {
                more = 0;   /* the one choice is made */
            } else {
                while (++x < d && c->used[x])
                    ;
                more = x < d;
            }
            if (!more) {
                if (p == 0)
                    return 0;
                p--;
                continue;
            }
        } else {         /* position p's first choice */
            h = p > 0 && p < c->head[p - 1] + c->clen[c->head[p - 1]] ? c->head[p - 1] : p;
            if (h < p && c->dis[p - 1] == e->most) {
                /* at the largest support, r^-1 of the symbol before is
                 * the one choice */
                x = c->rinv[c->seq[p - 1]];
                if (c->used[x]) {
                    p--;
                    c->redo = 1;
                    continue;
                }
            } else {
                x = 0;
                while (c->used[x])
                    x++;
            }
            if (h == p) {
                int l = 1;
                while (!c->left[l])
                    l++;
                c->left[l]--;
                c->clen[p] = (u8)l;
            }
            c->head[p] = (u8)h;
        }
        (*budget)--;
        c->seq[p] = (u8)x;
        c->used[x] = 1;
        int dis = p > 0 ? c->dis[p - 1] : 0, last = h + c->clen[h] - 1;
        if (p > h) {
            int y = c->seq[p - 1];
            c->s[y] = (u8)x;
            dis += x != c->rinv[y];
        }
        if (p == last) {
            c->s[x] = c->seq[h];
            dis += c->seq[h] != c->rinv[x];
        }
        c->dis[p] = (u8)dis;
        c->redo = 1;
        if (dis > e->most || dis + d - 1 - p + (p != last) < e->least)
            continue;
        if (p < d - 1) {
            p++;
            c->redo = 0;
        } else if (e->want[d - dis]) {
            c->at = p;
            return 1;
        }
    }
    c->at = p;
    return -1;
}

/* Starts the class walk of the right that c holds. */
static void start_right(const struct enumeration *e, struct cursor *c)
{
    int d = e->d;
    const u8 *r = e->rights + (size_t)c->right * (size_t)d;
    cycles_of(d, r, &c->rc);
    c->ric = c->rc;
    memset(c->used, 0, (size_t)d);
    memset(c->left, 0, (size_t)d + 1);
    for (int x = 0; x < d; x++)
        c->rinv[r[x]] = (u8)x;
    for (int i = 0; i < c->rc.n; i++) {
        int l = c->rc.len[i];
        const u8 *a = c->rc.sym + c->rc.off[i];
        for (int k = 1; k < l; k++)   /* r^-1 from the same first symbol */
            c->ric.sym[c->rc.off[i] + k] = a[l - k];
        c->left[l]++;
    }
    c->at = 0;
    c->redo = 0;
    c->phase = PH_TEST;
}

/* Gives c the next right that no cursor has claimed and starts its walk;
 * whether one was left. */
static int claim_right(struct enumeration *e, struct cursor *c)
{
    int r = atomic_load_explicit(&e->next, memory_order_relaxed);
    while (r < e->nrights &&
           !atomic_compare_exchange_weak_explicit(&e->next, &r, r + 1, memory_order_relaxed,
                                                  memory_order_relaxed))
        ;
    if (r >= e->nrights)
        return 0;
    c->right = r;
    start_right(e, c);
    return 1;
}

/* Whether c holds a right or can claim one. */
static int has_work(struct enumeration *e, const struct cursor *c)
{
    return c->right >= 0 || atomic_load_explicit(&e->next, memory_order_relaxed) < e->nrights;
}

/* A scan of the given rights against the given targets, where
 * targets[t * (d + 1) + l] counts the l-cycles of target t; NULL when out
 * of memory. */
struct enumeration *fl_enum_new(int d, int nrights, const u8 *rights,
                                int ntargets, const u8 *targets)
{
    struct enumeration *e = aligned_alloc(_Alignof(struct enumeration), sizeof *e);
    if (!e)
        return NULL;
    memset(e, 0, sizeof *e);
    e->d = d;
    e->nrights = nrights;
    e->ntargets = ntargets;
    atomic_init(&e->next, 0);
    atomic_init(&e->stop, 0);
    /* one spare byte or slot each: malloc(0) may return NULL */
    e->rights = malloc((size_t)nrights * (size_t)d + 1);
    e->targets = malloc((size_t)ntargets * (size_t)(d + 1) + 1);
    int ok = e->rights && e->targets;
    for (int i = 0; i < 2; i++) {
        struct cursor *c = &e->cur[i];
        c->right = -1;
        c->sets = calloc((size_t)ntargets + 1, sizeof *c->sets);
        c->hits = malloc(((size_t)ntargets + 1) * sizeof *c->hits);
        ok = ok && c->sets && c->hits;
        for (int t = 0; ok && t < ntargets; t++)
            ok = (c->sets[t] = scan_alloc(d)) != NULL;
    }
    if (!ok) {
        fl_enum_free(e);
        return NULL;
    }
    memcpy(e->rights, rights, (size_t)nrights * (size_t)d);
    memcpy(e->targets, targets, (size_t)ntargets * (size_t)(d + 1));
    e->least = d;
    for (int t = 0; t < ntargets; t++) {
        int fixed = targets[(size_t)t * (size_t)(d + 1) + 1];
        e->want[fixed] = 1;
        if (d - fixed < e->least)
            e->least = d - fixed;
        if (d - fixed > e->most)
            e->most = d - fixed;
    }
    return e;
}

/* Whether c s c^-1 comes before s as an image array. */
static int conjugate_is_less(int d, const u8 *c, const u8 *s)
{
    u8 cinv[256];
    for (int x = 0; x < d; x++)
        cinv[c[x]] = (u8)x;
    for (int x = 0; x < d; x++) {
        int y = c[s[cinv[x]]];
        if (y != s[x])
            return y < s[x];
    }
    return 0;
}

/* Works cursor c for at most *budget units, taking them off *budget:
 * filling one position of the class walk or testing one conjugate is a
 * unit, canonicalising one pair is d.  When c finishes a right it claims
 * the next.  Returns ST_DONE when c holds no right and none is left,
 * ST_MORE when the budget is spent first, or ST_NOMEM; a pair that is
 * not transitive is skipped. */
static int cursor_work(struct enumeration *e, struct cursor *c, long *budget)
{
    int d = e->d;
    u8 perm[256], cycles[256], key[512];
    while (*budget > 0) {
        if (c->right < 0 && !claim_right(e, c))
            return ST_DONE;
        const u8 *r = e->rights + (size_t)c->right * (size_t)d;
        if (c->phase == PH_TEST) {
            int found = walk_advance(e, c, budget);
            if (found < 0)
                break;
            if (!found) {
                c->right = -1;
                continue;
            }
            for (int x = 0; x < d; x++)
                perm[x] = c->s[r[x]];
            memset(cycles, 0, (size_t)d + 1);
            /* each cycle of s r is walked once and erased as it goes */
            for (int x = 0; x < d; x++) {
                if (perm[x] == UNSET)
                    continue;
                int len = 0, y = x;
                do {
                    int next = perm[y];
                    perm[y] = UNSET;
                    y = next;
                    len++;
                } while (y != x);
                cycles[len]++;
            }
            c->nhits = 0;
            for (int t = 0; t < e->ntargets; t++)
                if (!memcmp(cycles, e->targets + (size_t)t * (size_t)(d + 1), (size_t)d + 1))
                    c->hits[c->nhits++] = t;
            if (!c->nhits)
                continue;
            cycles_of(d, c->s, &c->sc);
            matching_first(&c->m, c->rc.n);
            c->phase = PH_LEAST;
        } else if (c->phase == PH_LEAST) {
            (*budget)--;
            if (!matching_next(&c->m, &c->rc)) {
                c->phase = PH_EXPAND;   /* m is the first map again */
                continue;
            }
            matching_apply(&c->m, &c->rc, &c->rc, perm);
            if (conjugate_is_less(d, perm, c->s))
                c->phase = PH_TEST;
        } else {
            *budget -= d;
            matching_apply(&c->m, &c->sc, &c->ric, perm);
            if (!canonical(d, r, perm, key))
                for (int i = 0; i < c->nhits; i++) {
                    long j = visit(c->sets[c->hits[i]], key, hash(key, 2 * d), LONG_MAX);
                    if (j < 0)
                        return (int)j;
                }
            if (!matching_next(&c->m, &c->sc))
                c->phase = PH_TEST;
        }
    }
    return ST_MORE;
}

/* The helper's part of a step: the second cursor, SLICE units at a time,
 * until it has no right left or is told to stop. */
static void *work_second(void *arg)
{
    struct enumeration *e = arg;
    int st;
    do {
        long slice = SLICE;
        st = cursor_work(e, &e->cur[1], &slice);
    } while (st == ST_MORE && !atomic_load_explicit(&e->stop, memory_order_relaxed));
    e->helper_status = st < 0 ? st : 0;
    return NULL;
}

/* Tells the helper to return, joins it and gives its status. */
static int stop_helper(struct enumeration *e, pthread_t helper)
{
    atomic_store_explicit(&e->stop, 1, memory_order_relaxed);
    pthread_join(helper, NULL);
    return e->helper_status;
}

/* Does at most ``budget`` units of work on the calling thread, see
 * cursor_work, and as much as it gets done on a helper thread meanwhile.
 * Returns ST_DONE, ST_MORE or ST_NOMEM. */
int fl_enum_step(struct enumeration *e, long budget)
{
    int st = 0, helping = 0, tried = 0;
    pthread_t helper;
    while (!st && budget > 0) {
        struct cursor *c = &e->cur[0];
        if (!has_work(e, c)) {
            if (helping) {   /* the helper holds the last right: take it over */
                st = stop_helper(e, helper);
                helping = 0;
                continue;
            }
            c = &e->cur[1];
            if (!has_work(e, c))
                break;
        }
        long slice = budget;
        if (!tried && c == &e->cur[0]) {
            if (e->spent < SCAN_HELPER_MIN) {   /* a small scan never starts the helper */
                if (slice > SCAN_HELPER_MIN - e->spent)
                    slice = SCAN_HELPER_MIN - e->spent;
            } else {
                tried = 1;
                int rights = e->nrights - atomic_load_explicit(&e->next, memory_order_relaxed) +
                             (e->cur[0].right >= 0) + (e->cur[1].right >= 0);
                if (budget >= SCAN_HELPER_MIN && rights >= 2) {
                    atomic_store_explicit(&e->stop, 0, memory_order_relaxed);
                    helping = start_helper(work_second, e, &helper);
                }
            }
        }
        long left = slice;
        st = cursor_work(e, c, &left);
        if (st > 0)
            st = 0;
        e->spent += slice - left;
        budget -= slice - left;
    }
    if (helping) {
        int helped = stop_helper(e, helper);
        if (!st)
            st = helped;
    }
    if (st)
        return st;
    return has_work(e, &e->cur[0]) || has_work(e, &e->cur[1]) ? ST_MORE : ST_DONE;
}

/* The key set of target t into *out, which the caller then owns and frees
 * with fl_scan_free: the keys of the second cursor's set after those of
 * the first, under one slot table, where a key in both sets keeps its
 * first place (rehash).  Returns 0, or ST_NOMEM with the set freed and
 * *out NULL.  Both slot tables go first and the new one is made last,
 * and the second set's keys are moved from its end, its array shrinking
 * after every PIECE keys, so that few keys are held twice. */
int fl_enum_take(struct enumeration *e, int t, struct scan **out)
{
    struct scan *s = e->cur[0].sets[t], *o = e->cur[1].sets[t];
    e->cur[0].sets[t] = e->cur[1].sets[t] = NULL;
    *out = NULL;
    long k = s->k, n = s->n + o->n;
    free(s->slots);
    free(o->slots);
    s->slots = o->slots = NULL;
    u8 *keys = realloc(s->keys, (size_t)(n ? n : 1) * (size_t)k);
    int st = keys ? 0 : ST_NOMEM;
    if (keys) {
        s->keys = keys;
        s->room = n ? n : 1;
    }
    while (!st && o->n > 0) {
        long lo = (o->n - 1) / PIECE * PIECE;   /* the last piece */
        memcpy(s->keys + (s->n + lo) * k, o->keys + lo * k, (size_t)((o->n - lo) * k));
        o->n = lo;
        u8 *less = lo ? realloc(o->keys, (size_t)(lo * k)) : NULL;
        if (less)   /* a shrink that fails only keeps the memory */
            o->keys = less;
    }
    fl_scan_free(o);
    if (!st) {
        size_t mask = s->mask;
        while (2 * (size_t)n > mask + 1)
            mask = 2 * mask + 1;
        s->n = n;
        st = rehash(s, mask);
    }
    if (st) {
        fl_scan_free(s);
        return st;
    }
    *out = s;
    return 0;
}
