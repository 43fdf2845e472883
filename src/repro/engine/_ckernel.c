/* Compiled datapath kernel for the fast engine (array-state machines).
 *
 * The kernel executes packed access plans and single-line accesses
 * statement for statement as the per-line port path in
 * repro/memory/hierarchy.py (CorePort._demand_lines, _nt_store_lines,
 * software_prefetch, flush_lines and the fill/absorb chains), on the
 * numpy array state shared with the Python side:
 *
 *   - Cache array backend (memory/cache.py): tags / dirty per (set,
 *     way) plus per-level replacement state.  LRU and FIFO keep a
 *     monotone stamp (LRU re-stamps on hits and fills, FIFO on fills
 *     only); tree-PLRU keeps assoc-1 tree bits per set; random draws
 *     from the cache's one-slot xorshift state.  Empty ways
 *     (tag == -1) fill first, whatever the policy.
 *   - ArrayTlb (memory/tlb.py): fully-associative page arrays with
 *     stamp-LRU replicating the dict insertion-order recency.
 *   - Array prefetcher tables (prefetch/arraystate.py).
 *   - PrefetchedSet (memory/prefetched.py): open-addressing int64 hash,
 *     -1 empty / -2 tombstone; capacity is ensured by Python before
 *     every call, so this side never grows the table.
 *
 * All counters are accumulated into the `out` array; the Python caller
 * applies them to BatchStats / CacheStats / TlbStats / PrefetchStats /
 * IMC counters.  Per-home DRAM traffic accumulates into ctx->homes
 * (nnodes x 4: [demand_reads, prefetch_reads, writes, remote_lines]).
 *
 * The equivalence contract (cross-engine conformance fuzz and
 * tests/engine) gates this file counter-for-counter against the
 * reference interpreter.
 */

#include <stdint.h>

/* out[] layout -- keep in sync with OUT_* in engine/ckernel.py */
enum {
    O_ACC, O_L1H, O_L2H, O_L3H, O_DRD, O_WBK, O_NTL,
    O_E1, O_E2, O_E3, O_SWP, O_HWI, O_PFR, O_PFU, O_REM, O_FLS,
    O_TLBM, O_TLBW, O_DACC,
    O_C1F, O_C1D, O_C1I, O_C2F, O_C2D, O_C2I,
    O_C3H, O_C3M, O_C3F, O_C3D, O_C3I,
    O_OCC1, O_OCC2, O_OCC3,
    O_NLI, O_SMI, O_STI, O_USEFUL,
    O_TACC, O_T1H, O_T2H, O_TWALK,
    O_COUNT
};

/* run_meta[] per-run layout -- keep in sync with engine/plan.py */
enum { RM_OP, RM_HOME, RM_REMOTE, RM_OFF, RM_N, RM_SID, RM_FIELDS };

/* per-level replacement policy -- keep in sync with POLICY_CODES in
 * engine/ckernel.py */
enum { P_LRU, P_FIFO, P_PLRU, P_RANDOM };

typedef struct {
    /* caches: 0 = L1, 1 = L2, 2 = L3 */
    int64_t *tags[3];
    uint8_t *dirty[3];
    int64_t *stamp[3];
    int64_t  set_mask[3];
    int64_t  assoc[3];
    /* TLB */
    int64_t *tlb1_pages, *tlb1_stamp;
    int64_t *tlb2_pages, *tlb2_stamp;
    int64_t *tlb_regs;            /* [tick, l1_count, l2_count] */
    int64_t  tlb1_entries, tlb2_entries, walk_latency;
    /* prefetched-line hash set */
    int64_t *pf_slots;
    int64_t *pf_regs;             /* [size, tombstones] */
    int64_t  pf_mask;
    /* stride table */
    int64_t *st_keys, *st_last, *st_strd, *st_conf, *st_lruv, *st_regs;
    int64_t  st_sites, st_deg, st_thr, st_maxs;
    /* stream table */
    int64_t *sm_keys, *sm_last, *sm_dirn, *sm_conf, *sm_front,
            *sm_lruv, *sm_regs;
    int64_t  sm_trackers, sm_deg, sm_dist, sm_thr, sm_lpp;
    /* next-line */
    int64_t  nl_lpp;
    /* port */
    int64_t  page_shift;
    /* per-call enable flags (MSR mask) */
    int64_t  nl_on, sm_on, st_on;
    /* shared scalar registers: [l1_tick, l2_tick, l3_tick, last_page] */
    int64_t *regs;
    /* per-home DRAM accumulators, nnodes x 4 */
    int64_t *homes;
    /* replacement policy per cache level and its state: stamp (LRU,
     * FIFO), tree bits (PLRU, nsets x max(assoc-1, 1)), or the one-slot
     * xorshift state (random) */
    int64_t  policy[3];
    uint8_t *plru[3];
    int64_t *rng[3];
} Ctx;

/* ------------------------------------------------------------------ */
/* cache primitives (array backend semantics)                          */
/* ------------------------------------------------------------------ */

static inline int64_t way_find(const Ctx *c, int l, int64_t set,
                               int64_t line) {
    const int64_t *t = c->tags[l] + set * c->assoc[l];
    int64_t a = c->assoc[l];
    for (int64_t w = 0; w < a; w++)
        if (t[w] == line)
            return w;
    return -1;
}

/* tree-PLRU: point every bit on the way's path away from it (the
 * walk of TreePlruPolicy._touch) */
static inline void plru_touch(Ctx *c, int l, int64_t set, int64_t way) {
    int64_t a = c->assoc[l];
    uint8_t *bits = c->plru[l] + set * (a > 1 ? a - 1 : 1);
    int64_t node = 0, span = a, offset = 0;
    while (span > 1) {
        int64_t half = span / 2;
        int right = way >= offset + half;
        bits[node] = right ? 0 : 1;
        node = 2 * node + (right ? 2 : 1);
        if (right)
            offset += half;
        span = half;
    }
}

static inline void stamp(Ctx *c, int l, int64_t set, int64_t way) {
    c->regs[l] += 1;
    c->stamp[l][set * c->assoc[l] + way] = c->regs[l];
}

/* a demand or prefetch hit (Cache.lookup_update): FIFO and random
 * keep no trace of hits */
static inline void hit_touch(Ctx *c, int l, int64_t set, int64_t way) {
    int64_t p = c->policy[l];
    if (p == P_LRU)
        stamp(c, l, set, way);
    else if (p == P_PLRU)
        plru_touch(c, l, set, way);
}

/* a fill into a way (Cache.fill) */
static inline void fill_touch(Ctx *c, int l, int64_t set, int64_t way) {
    int64_t p = c->policy[l];
    if (p == P_LRU || p == P_FIFO)
        stamp(c, l, set, way);
    else if (p == P_PLRU)
        plru_touch(c, l, set, way);
}

/* the way to evict from a full set */
static int64_t victim(Ctx *c, int l, int64_t set) {
    int64_t a = c->assoc[l];
    int64_t p = c->policy[l];
    if (p == P_PLRU) {
        const uint8_t *bits = c->plru[l] + set * (a > 1 ? a - 1 : 1);
        int64_t node = 0, span = a, offset = 0;
        while (span > 1) {
            int64_t half = span / 2;
            int right = bits[node] == 1;
            node = 2 * node + (right ? 2 : 1);
            if (right)
                offset += half;
            span = half;
        }
        return offset;
    }
    if (p == P_RANDOM) {
        /* RandomPolicy.victim: 32-bit xorshift */
        uint64_t x = (uint64_t)*c->rng[l];
        x ^= (x << 13) & 0xFFFFFFFFULL;
        x ^= x >> 17;
        x ^= (x << 5) & 0xFFFFFFFFULL;
        *c->rng[l] = (int64_t)x;
        return (int64_t)(x % (uint64_t)a);
    }
    /* LRU / FIFO: every way is valid here, so the smallest stamp is
     * the recency-list tail */
    const int64_t *s = c->stamp[l] + set * a;
    int64_t way = 0;
    for (int64_t w = 1; w < a; w++)
        if (s[w] < s[way])
            way = w;
    return way;
}

/* insert an absent line; returns 1 when a victim was evicted
 * (ev_line/ev_dirty set), 0 when an empty way was used (occupancy
 * grows at the caller).  Every caller has just missed the line, so
 * this is never the refill of a resident line. */
static int fill_absent(Ctx *c, int l, int64_t line, int dirty,
                       int64_t *ev_line, int *ev_dirty) {
    int64_t set = line & c->set_mask[l];
    int64_t a = c->assoc[l];
    int64_t *t = c->tags[l] + set * a;
    uint8_t *d = c->dirty[l] + set * a;
    int64_t way = -1;
    for (int64_t w = 0; w < a; w++)
        if (t[w] == -1) { way = w; break; }
    int evicted = 0;
    if (way < 0) {
        way = victim(c, l, set);
        *ev_line = t[way];
        *ev_dirty = d[way];
        evicted = 1;
    }
    t[way] = line;
    d[way] = (uint8_t)dirty;
    fill_touch(c, l, set, way);
    return evicted;
}

/* drop a line; returns -1 absent, else its dirty flag (0/1) */
static int cache_invalidate(Ctx *c, int l, int64_t line) {
    int64_t set = line & c->set_mask[l];
    int64_t w = way_find(c, l, set, line);
    if (w < 0)
        return -1;
    int64_t i = set * c->assoc[l] + w;
    int dirty = c->dirty[l][i];
    c->tags[l][i] = -1;
    c->dirty[l][i] = 0;
    return dirty;
}

static inline int contains(const Ctx *c, int l, int64_t line) {
    return way_find(c, l, line & c->set_mask[l], line) >= 0;
}

/* ------------------------------------------------------------------ */
/* prefetched-line hash set                                            */
/* ------------------------------------------------------------------ */

static inline int64_t pf_home(int64_t line, int64_t mask) {
    uint64_t h = (uint64_t)line * 0x9E3779B97F4A7C15ULL;
    return (int64_t)((h >> 32) & (uint64_t)mask);
}

static void pf_add(Ctx *c, int64_t line) {
    int64_t mask = c->pf_mask;
    int64_t *s = c->pf_slots;
    int64_t i = pf_home(line, mask);
    int64_t first_tomb = -1;
    for (;;) {
        int64_t v = s[i];
        if (v == line)
            return;
        if (v == -1)
            break;
        if (v == -2 && first_tomb < 0)
            first_tomb = i;
        i = (i + 1) & mask;
    }
    if (first_tomb >= 0) {
        s[first_tomb] = line;
        c->pf_regs[1] -= 1;
    } else {
        s[i] = line;
    }
    c->pf_regs[0] += 1;
}

/* returns 1 when the line was present (and is now removed) */
static int pf_discard(Ctx *c, int64_t line) {
    int64_t mask = c->pf_mask;
    int64_t *s = c->pf_slots;
    int64_t i = pf_home(line, mask);
    for (;;) {
        int64_t v = s[i];
        if (v == line) {
            s[i] = -2;
            c->pf_regs[0] -= 1;
            c->pf_regs[1] += 1;
            return 1;
        }
        if (v == -1)
            return 0;
        i = (i + 1) & mask;
    }
}

/* ------------------------------------------------------------------ */
/* TLB (ArrayTlb semantics)                                            */
/* ------------------------------------------------------------------ */

static void tlb_fill(Ctx *c, int64_t page) {
    int64_t *r = c->tlb_regs;
    if (r[1] >= c->tlb1_entries) {
        /* L1 full -> every slot valid; smallest stamp is the dict head */
        int64_t v = 0;
        for (int64_t k = 1; k < c->tlb1_entries; k++)
            if (c->tlb1_stamp[k] < c->tlb1_stamp[v])
                v = k;
        int64_t victim = c->tlb1_pages[v];
        c->tlb1_pages[v] = -1;
        r[1] -= 1;
        if (r[2] >= c->tlb2_entries) {
            int64_t w = 0;
            for (int64_t k = 1; k < c->tlb2_entries; k++)
                if (c->tlb2_stamp[k] < c->tlb2_stamp[w])
                    w = k;
            c->tlb2_pages[w] = -1;
            r[2] -= 1;
        }
        int64_t f = 0;
        while (c->tlb2_pages[f] != -1)
            f++;
        r[0] += 1;
        c->tlb2_pages[f] = victim;
        c->tlb2_stamp[f] = r[0];
        r[2] += 1;
    }
    int64_t f = 0;
    while (c->tlb1_pages[f] != -1)
        f++;
    r[0] += 1;
    c->tlb1_pages[f] = page;
    c->tlb1_stamp[f] = r[0];
    r[1] += 1;
}

static int64_t tlb_translate(Ctx *c, int64_t page, int64_t *o) {
    o[O_TACC] += 1;
    for (int64_t k = 0; k < c->tlb1_entries; k++)
        if (c->tlb1_pages[k] == page) {
            c->tlb_regs[0] += 1;
            c->tlb1_stamp[k] = c->tlb_regs[0];
            o[O_T1H] += 1;
            return 0;
        }
    for (int64_t k = 0; k < c->tlb2_entries; k++)
        if (c->tlb2_pages[k] == page) {
            c->tlb2_pages[k] = -1;
            c->tlb_regs[2] -= 1;
            o[O_T2H] += 1;
            tlb_fill(c, page);
            return 0;
        }
    o[O_TWALK] += 1;
    tlb_fill(c, page);
    return c->walk_latency;
}

static inline void page_check(Ctx *c, int64_t line, int64_t *o) {
    int64_t page = line >> c->page_shift;
    if (page != c->regs[3]) {
        c->regs[3] = page;
        int64_t walk = tlb_translate(c, page, o);
        if (walk) {
            o[O_TLBM] += 1;
            o[O_TLBW] += walk;
        }
    }
}

/* ------------------------------------------------------------------ */
/* fill / writeback chains (CorePort._absorb_dirty inlines)            */
/* ------------------------------------------------------------------ */

static void absorb_l3(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t set = line & c->set_mask[2];
    int64_t w = way_find(c, 2, set, line);
    if (w >= 0) {
        /* mark-dirty absorption: no recency touch */
        c->dirty[2][set * c->assoc[2] + w] = 1;
        return;
    }
    o[O_C3F] += 1;
    int64_t evl;
    int evd;
    if (fill_absent(c, 2, line, 1, &evl, &evd)) {
        o[O_E3] += 1;
        if (evd) {
            o[O_C3D] += 1;
            o[O_WBK] += 1;
            c->homes[home * 4 + 2] += 1;
        }
    } else {
        o[O_OCC3] += 1;
    }
}

static void absorb_l2(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t set = line & c->set_mask[1];
    int64_t w = way_find(c, 1, set, line);
    if (w >= 0) {
        c->dirty[1][set * c->assoc[1] + w] = 1;
        return;
    }
    o[O_C2F] += 1;
    int64_t evl;
    int evd;
    if (fill_absent(c, 1, line, 1, &evl, &evd)) {
        o[O_E2] += 1;
        if (evd) {
            o[O_C2D] += 1;
            absorb_l3(c, evl, home, o);
        }
    } else {
        o[O_OCC2] += 1;
    }
}

/* one non-resident hw-prefetch candidate's fill chain (the body of
 * CorePort._hw_prefetch past its residency skip) */
static void hw_fill(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    o[O_HWI] += 1;
    int64_t set3 = line & c->set_mask[2];
    int64_t w = way_find(c, 2, set3, line);
    int64_t evl;
    int evd;
    if (w >= 0) {
        hit_touch(c, 2, set3, w);
        o[O_C3H] += 1;
    } else {
        o[O_C3M] += 1;
        o[O_PFR] += 1;
        c->homes[home * 4 + 1] += 1;
        o[O_C3F] += 1;
        if (fill_absent(c, 2, line, 0, &evl, &evd)) {
            o[O_E3] += 1;
            if (evd) {
                o[O_C3D] += 1;
                o[O_WBK] += 1;
                c->homes[home * 4 + 2] += 1;
            }
        } else {
            o[O_OCC3] += 1;
        }
    }
    /* fill L2 (absent: resident lines were skipped by the caller) */
    o[O_C2F] += 1;
    if (fill_absent(c, 1, line, 0, &evl, &evd)) {
        o[O_E2] += 1;
        if (evd) {
            o[O_C2D] += 1;
            absorb_l3(c, evl, home, o);
        }
    } else {
        o[O_OCC2] += 1;
    }
    pf_add(c, line);
}

/* ------------------------------------------------------------------ */
/* prefetch engines (array-table semantics, identical to observe())    */
/* ------------------------------------------------------------------ */

static void nl_observe(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int64_t nxt = line + 1;
    if (nxt % c->nl_lpp == 0)
        return; /* never crosses a page */
    o[O_NLI] += 1;
    if (contains(c, 1, nxt) || contains(c, 0, nxt))
        return;
    hw_fill(c, nxt, home, o);
}

static void sm_observe(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    c->sm_regs[0] += 1;
    int64_t page = line / c->sm_lpp;
    int64_t n = c->sm_trackers, i = -1;
    for (int64_t k = 0; k < n; k++)
        if (c->sm_keys[k] == page) { i = k; break; }
    if (i < 0) {
        if (c->sm_regs[1] >= n) {
            int64_t v = 0;
            for (int64_t k = 1; k < n; k++)
                if (c->sm_lruv[k] < c->sm_lruv[v])
                    v = k;
            c->sm_keys[v] = -1;
            c->sm_regs[1] -= 1;
        }
        int64_t f = 0;
        while (c->sm_keys[f] != -1)
            f++;
        c->sm_keys[f] = page;
        c->sm_last[f] = line;
        c->sm_dirn[f] = 0;
        c->sm_conf[f] = 0;
        c->sm_front[f] = line;
        c->sm_lruv[f] = c->sm_regs[0];
        c->sm_regs[1] += 1;
        return;
    }
    c->sm_lruv[i] = c->sm_regs[0];
    int64_t delta = line - c->sm_last[i];
    c->sm_last[i] = line;
    if (delta == 0)
        return;
    int64_t dirn = delta > 0 ? 1 : -1;
    if (dirn == c->sm_dirn[i]) {
        c->sm_conf[i] += 1;
    } else {
        c->sm_dirn[i] = dirn;
        c->sm_conf[i] = 1;
        c->sm_front[i] = line;
    }
    if (c->sm_conf[i] < c->sm_thr)
        return;
    int64_t pfirst = page * c->sm_lpp;
    if (dirn > 0) {
        int64_t start = c->sm_front[i] + 1;
        if (start < line + 1)
            start = line + 1;
        int64_t end = line + c->sm_dist;
        int64_t plast = pfirst + c->sm_lpp - 1;
        if (end > plast)
            end = plast;
        int64_t cnt = end - start + 1;
        if (cnt > 0) {
            if (cnt > c->sm_deg)
                cnt = c->sm_deg;
            end = start + cnt - 1;
            c->sm_front[i] = end;
            o[O_SMI] += cnt;
            for (int64_t p = start; p <= end; p++) {
                if (contains(c, 1, p) || contains(c, 0, p))
                    continue;
                hw_fill(c, p, home, o);
            }
        }
    } else {
        int64_t start = c->sm_front[i] - 1;
        if (start > line - 1)
            start = line - 1;
        int64_t end = line - c->sm_dist;
        if (end < pfirst)
            end = pfirst;
        int64_t cnt = start - end + 1;
        if (cnt > 0) {
            if (cnt > c->sm_deg)
                cnt = c->sm_deg;
            end = start - cnt + 1;
            c->sm_front[i] = end;
            o[O_SMI] += cnt;
            for (int64_t p = start; p >= end; p--) {
                if (contains(c, 1, p) || contains(c, 0, p))
                    continue;
                hw_fill(c, p, home, o);
            }
        }
    }
}

static void st_observe(Ctx *c, int64_t line, int64_t sid, int64_t home,
                       int64_t *o) {
    c->st_regs[0] += 1;
    int64_t n = c->st_sites, i = -1;
    for (int64_t k = 0; k < n; k++)
        if (c->st_keys[k] == sid) { i = k; break; }
    if (i < 0) {
        if (c->st_regs[1] >= n) {
            int64_t v = 0;
            for (int64_t k = 1; k < n; k++)
                if (c->st_lruv[k] < c->st_lruv[v])
                    v = k;
            c->st_keys[v] = -1;
            c->st_regs[1] -= 1;
        }
        int64_t f = 0;
        while (c->st_keys[f] != -1)
            f++;
        c->st_keys[f] = sid;
        c->st_last[f] = line;
        c->st_strd[f] = 0;
        c->st_conf[f] = 0;
        c->st_lruv[f] = c->st_regs[0];
        c->st_regs[1] += 1;
        return;
    }
    c->st_lruv[i] = c->st_regs[0];
    int64_t d = line - c->st_last[i];
    c->st_last[i] = line;
    if (d == 0 || d > c->st_maxs || d < -c->st_maxs) {
        c->st_conf[i] = 0;
        c->st_strd[i] = 0;
        return;
    }
    if (d == c->st_strd[i]) {
        c->st_conf[i] += 1;
    } else {
        c->st_strd[i] = d;
        c->st_conf[i] = 1;
    }
    if (c->st_conf[i] < c->st_thr)
        return;
    int64_t deg = c->st_deg;
    if (line + d * deg < 0) {
        /* some candidate underflows line 0: filtered slow path */
        for (int64_t k = 1; k <= deg; k++) {
            int64_t p = line + d * k;
            if (p < 0)
                continue;
            o[O_STI] += 1;
            if (contains(c, 1, p) || contains(c, 0, p))
                continue;
            hw_fill(c, p, home, o);
        }
        return;
    }
    o[O_STI] += deg;
    int64_t p = line;
    for (int64_t k = 0; k < deg; k++) {
        p += d;
        if (contains(c, 1, p) || contains(c, 0, p))
            continue;
        hw_fill(c, p, home, o);
    }
}

/* ------------------------------------------------------------------ */
/* per-line op bodies                                                  */
/* ------------------------------------------------------------------ */

static void demand_line(Ctx *c, int64_t line, int64_t sid, int is_write,
                        int64_t home, int remote, int64_t *o) {
    o[O_ACC] += 1;
    o[O_DACC] += 1;
    page_check(c, line, o);
    int64_t set1 = line & c->set_mask[0];
    int64_t w1 = way_find(c, 0, set1, line);
    if (w1 >= 0) {
        hit_touch(c, 0, set1, w1);
        if (is_write)
            c->dirty[0][set1 * c->assoc[0] + w1] = 1;
        o[O_L1H] += 1;
        /* only the IP-stride engine trains on hits */
        if (c->st_on)
            st_observe(c, line, sid, home, o);
        return;
    }
    int64_t evl;
    int evd;
    int64_t set2 = line & c->set_mask[1];
    int64_t w2 = way_find(c, 1, set2, line);
    if (w2 >= 0) {
        hit_touch(c, 1, set2, w2);
        o[O_L2H] += 1;
        if (pf_discard(c, line)) {
            o[O_PFU] += 1;
            o[O_USEFUL] += 1; /* every enabled engine's useful++ */
        }
    } else {
        int64_t set3 = line & c->set_mask[2];
        int64_t w3 = way_find(c, 2, set3, line);
        if (w3 >= 0) {
            hit_touch(c, 2, set3, w3);
            o[O_L3H] += 1;
            if (pf_discard(c, line))
                o[O_PFU] += 1;
        } else {
            o[O_DRD] += 1;
            c->homes[home * 4 + 0] += 1;
            if (remote) {
                o[O_REM] += 1;
                c->homes[home * 4 + 3] += 1;
            }
            /* fill L3 (absent) */
            if (fill_absent(c, 2, line, 0, &evl, &evd)) {
                o[O_E3] += 1;
                if (evd) {
                    o[O_C3D] += 1;
                    o[O_WBK] += 1;
                    c->homes[home * 4 + 2] += 1;
                }
            } else {
                o[O_OCC3] += 1;
            }
        }
        /* fill L2 (absent: the L2 miss branch) */
        if (fill_absent(c, 1, line, 0, &evl, &evd)) {
            o[O_E2] += 1;
            if (evd) {
                o[O_C2D] += 1;
                absorb_l3(c, evl, home, o);
            }
        } else {
            o[O_OCC2] += 1;
        }
    }
    /* fill L1 (absent: the L1 miss branch) */
    if (fill_absent(c, 0, line, is_write, &evl, &evd)) {
        o[O_E1] += 1;
        if (evd) {
            o[O_C1D] += 1;
            absorb_l2(c, evl, home, o);
        }
    } else {
        o[O_OCC1] += 1;
    }
    if (c->nl_on)
        nl_observe(c, line, home, o);
    if (c->sm_on)
        sm_observe(c, line, home, o);
    if (c->st_on)
        st_observe(c, line, sid, home, o);
}

static void swpf_line(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    if (contains(c, 0, line))
        return;
    int64_t evl;
    int evd;
    if (!contains(c, 1, line)) {
        int64_t set3 = line & c->set_mask[2];
        int64_t w = way_find(c, 2, set3, line);
        if (w >= 0) {
            hit_touch(c, 2, set3, w);
            o[O_C3H] += 1;
        } else {
            o[O_C3M] += 1;
            o[O_PFR] += 1;
            c->homes[home * 4 + 1] += 1;
            o[O_C3F] += 1;
            if (fill_absent(c, 2, line, 0, &evl, &evd)) {
                o[O_E3] += 1;
                if (evd) {
                    o[O_C3D] += 1;
                    o[O_WBK] += 1;
                    c->homes[home * 4 + 2] += 1;
                }
            } else {
                o[O_OCC3] += 1;
            }
        }
        o[O_C2F] += 1;
        if (fill_absent(c, 1, line, 0, &evl, &evd)) {
            o[O_E2] += 1;
            if (evd) {
                o[O_C2D] += 1;
                absorb_l3(c, evl, home, o);
            }
        } else {
            o[O_OCC2] += 1;
        }
    }
    /* fill L1 clean (absent: resident lines returned above) */
    o[O_C1F] += 1;
    if (fill_absent(c, 0, line, 0, &evl, &evd)) {
        o[O_E1] += 1;
        if (evd) {
            o[O_C1D] += 1;
            absorb_l2(c, evl, home, o);
        }
    } else {
        o[O_OCC1] += 1;
    }
    pf_add(c, line);
}

static void flush_line(Ctx *c, int64_t line, int64_t home, int64_t *o) {
    int dirty = 0, d;
    if ((d = cache_invalidate(c, 0, line)) >= 0) {
        o[O_C1I] += 1;
        o[O_OCC1] -= 1;
        dirty |= d;
    }
    if ((d = cache_invalidate(c, 1, line)) >= 0) {
        o[O_C2I] += 1;
        o[O_OCC2] -= 1;
        dirty |= d;
    }
    if ((d = cache_invalidate(c, 2, line)) >= 0) {
        o[O_C3I] += 1;
        o[O_OCC3] -= 1;
        dirty |= d;
    }
    if (dirty) {
        o[O_WBK] += 1;
        c->homes[home * 4 + 2] += 1;
    }
}

static void nt_line(Ctx *c, int64_t line, int64_t *o) {
    page_check(c, line, o);
    if (cache_invalidate(c, 0, line) >= 0) {
        o[O_C1I] += 1;
        o[O_OCC1] -= 1;
    }
    if (cache_invalidate(c, 1, line) >= 0) {
        o[O_C2I] += 1;
        o[O_OCC2] -= 1;
    }
    if (cache_invalidate(c, 2, line) >= 0) {
        o[O_C3I] += 1;
        o[O_OCC3] -= 1;
    }
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

int64_t repro_ctx_size(void) { return (int64_t)sizeof(Ctx); }

int64_t repro_execute_plan(Ctx *c, int64_t nruns, const int64_t *meta,
                           const int64_t *lines, const int64_t *sids,
                           int64_t *o) {
    for (int64_t i = 0; i < O_COUNT; i++)
        o[i] = 0;
    for (int64_t r = 0; r < nruns; r++) {
        const int64_t *m = meta + r * RM_FIELDS;
        int64_t op = m[RM_OP];
        int64_t home = m[RM_HOME];
        int remote = (int)m[RM_REMOTE];
        int64_t off = m[RM_OFF];
        int64_t n = m[RM_N];
        int64_t sid_mode = m[RM_SID];
        const int64_t *L = lines + off;
        if (n <= 0)
            continue;
        if (op <= 1) {
            int is_write = op == 1;
            if (sid_mode >= 0) {
                for (int64_t k = 0; k < n; k++)
                    demand_line(c, L[k], sid_mode, is_write, home,
                                remote, o);
            } else {
                const int64_t *S = sids + off;
                for (int64_t k = 0; k < n; k++)
                    demand_line(c, L[k], S[k], is_write, home, remote, o);
            }
        } else if (op == 3) {
            o[O_SWP] += n;
            for (int64_t k = 0; k < n; k++)
                swpf_line(c, L[k], home, o);
        } else if (op == 4) {
            o[O_FLS] += n;
            for (int64_t k = 0; k < n; k++)
                flush_line(c, L[k], home, o);
        } else { /* op == 2: non-temporal store */
            o[O_ACC] += n;
            o[O_NTL] += n;
            c->homes[home * 4 + 2] += n;
            if (remote) {
                o[O_REM] += n;
                c->homes[home * 4 + 3] += n;
            }
            for (int64_t k = 0; k < n; k++)
                nt_line(c, L[k], o);
        }
    }
    return 0;
}

int64_t repro_execute_single(Ctx *c, int64_t line, int64_t is_write,
                             int64_t home, int64_t remote, int64_t *o) {
    for (int64_t i = 0; i < O_COUNT; i++)
        o[i] = 0;
    demand_line(c, line, 0, (int)is_write, home, (int)remote, o);
    return 0;
}
