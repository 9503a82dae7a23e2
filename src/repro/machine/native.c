/* The machine model's memory core: sequential loops over one chunk of
 * memory events (event = byte_address << 1 | is_write), loaded by
 * repro/machine/native.py. The Python entry points own the state arrays
 * carried across chunks; every loop must equal the per-access oracles in
 * tests/machine/reference.py bit for bit. */
#include <stdint.h>

static inline uint64_t slot_hash(int64_t e, int64_t hbits)
{
    return ((uint64_t)e * 0x9E3779B97F4A7C15ull) >> (64 - hbits);
}

/* The register window: the `cap` most recently touched distinct elements
 * as a doubly linked recency list over `cap` slots plus an element -> slot
 * table of 2**hbits entries (linear probing). State, -1 meaning "none":
 *   [used, head (most recent), tail | elem | prev | next (cap each) | table]
 * A resident element moves to the head; any other takes a free slot or
 * evicts the tail's. Loads to resident elements are elided; the byte
 * addresses of the other events go to out[0..kept), in order, and the
 * count kept is returned. out may be events itself: event i is read
 * before out[i] can be written. */
int64_t regfilter(int64_t *st, int64_t cap, int64_t hbits,
                  const int64_t *events, int64_t n, int64_t element_shift,
                  int64_t *out)
{
    if (cap == 0) {
        for (int64_t i = 0; i < n; i++)
            out[i] = events[i] >> 1;
        return n;
    }
    int64_t *elem = st + 3, *prev = elem + cap, *next = prev + cap, *table = next + cap;
    const uint64_t hmask = ((uint64_t)1 << hbits) - 1;
    int64_t used = st[0], head = st[1], tail = st[2], kept = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t ev = events[i], e = ev >> (element_shift + 1), s;
        uint64_t h = slot_hash(e, hbits);
        while ((s = table[h]) >= 0 && elem[s] != e)
            h = (h + 1) & hmask;
        out[kept] = ev >> 1;
        kept += s < 0 || (ev & 1);
        if (s >= 0) {
            if (s == head)
                continue;
        } else if (used < cap) {
            s = used++;
            elem[s] = e;
            table[h] = s;
            goto push;
        } else {
            /* Evict the tail's element: backward-shift deletion. */
            s = tail;
            uint64_t j = slot_hash(elem[s], hbits);
            while (table[j] != s)
                j = (j + 1) & hmask;
            for (uint64_t k = (j + 1) & hmask; table[k] >= 0; k = (k + 1) & hmask)
                if (((k - slot_hash(elem[table[k]], hbits)) & hmask) >= ((k - j) & hmask)) {
                    table[j] = table[k];
                    j = k;
                }
            table[j] = -1;
            for (h = slot_hash(e, hbits); table[h] >= 0; h = (h + 1) & hmask)
                ;
            elem[s] = e;
            table[h] = s;
            if (s == head)  /* cap == 1 */
                continue;
        }
        /* Unlink s, which is not the head. */
        next[prev[s]] = next[s];
        if (next[s] >= 0)
            prev[next[s]] = prev[s];
        else
            tail = prev[s];
    push:
        prev[s] = -1;
        next[s] = head;
        if (head >= 0)
            prev[head] = s;
        else
            tail = s;
        head = s;
    }
    st[0] = used;
    st[1] = head;
    st[2] = tail;
    return kept;
}

/* One set-associative LRU level: each set's resident lines, most recent
 * first (-1 = empty way). Moves `line` to the front; returns 1 on a miss. */
static inline int64_t set_of(int64_t nsets, int64_t line)
{
    return (nsets & (nsets - 1)) ? line % nsets : line & (nsets - 1);
}

static inline int cache_access(int64_t *ways, int64_t nsets, int64_t assoc, int64_t line)
{
    int64_t *w = ways + assoc * set_of(nsets, line);
    int64_t k = 0;
    while (k < assoc - 1 && w[k] != line)
        k++;
    int missed = w[k] != line;
    for (; k > 0; k--)
        w[k] = w[k - 1];
    w[0] = line;
    return missed;
}

/* Byte addresses through L1 (ways1) and each L1 miss, in order, through L2
 * (ways2; nsets2 = 0 for a single level). Writes the L1 miss mask if miss
 * is not NULL, and *l2_misses; returns the L1 miss count, or -1 at a
 * negative address. */
int64_t cache(int64_t *ways1, int64_t nsets1, int64_t assoc1, int64_t shift1,
              int64_t *ways2, int64_t nsets2, int64_t assoc2, int64_t shift2,
              const int64_t *addr, int64_t n, uint8_t *miss, int64_t *l2_misses)
{
    int64_t misses1 = 0, misses2 = 0;
    for (int64_t i = 0; i < n; i++) {
        if (addr[i] < 0)
            return -1;
        int m = cache_access(ways1, nsets1, assoc1, addr[i] >> shift1);
        if (miss)
            miss[i] = (uint8_t)m;
        misses1 += m;
        if (m && nsets2)
            misses2 += cache_access(ways2, nsets2, assoc2, addr[i] >> shift2);
    }
    *l2_misses = misses2;
    return misses1;
}

/* One write-allocate, write-back LRU level over memory events: `ways` as
 * in cache(), plus a dirty flag per way that moves with its line. A store
 * dirties its line; a miss evicts the set's last way, and a dirty victim
 * adds one to *writebacks. Writes the miss mask; returns the miss count,
 * or -1 at a negative address. */
int64_t writeback(int64_t *ways, uint8_t *dirty, int64_t nsets, int64_t assoc,
                  int64_t shift, const int64_t *events, int64_t n, uint8_t *miss,
                  int64_t *writebacks)
{
    int64_t misses = 0, evicted = 0;
    for (int64_t i = 0; i < n; i++) {
        if (events[i] < 0)
            return -1;
        int64_t line = events[i] >> (shift + 1), set = assoc * set_of(nsets, line);
        int64_t *w = ways + set;
        uint8_t *d = dirty + set;
        int64_t k = 0;
        while (k < assoc - 1 && w[k] != line)
            k++;
        int m = w[k] != line;
        uint8_t was_dirty = d[k];
        evicted += m & was_dirty;
        for (; k > 0; k--) {
            w[k] = w[k - 1];
            d[k] = d[k - 1];
        }
        w[0] = line;
        d[0] = (uint8_t)((!m & was_dirty) | (events[i] & 1));
        miss[i] = (uint8_t)m;
        misses += m;
    }
    *writebacks += evicted;
    return misses;
}
