/* The columnar LTC's batch update: one pass over a batch of keys.
 *
 * Per arrival this is the reference update of src/repro/core/ltc.py, step
 * for step, over the four columns of ColumnarLTC: ltc_place is
 * LTC._place, decrement_smallest LTC._decrement_smallest,
 * longtail_initial LTC._longtail_initial, harvest LTC._harvest, and the
 * loop's tail the count-based ClockPointer.on_arrival (DESIGN.md 11.2).
 * Scores are alpha * f + beta * p rounded after the multiply and after
 * the add, as in Python: build with -ffp-contract=off.  An empty cell
 * holds EMPTY_KEY, which the caller guarantees no item takes.
 *
 * Three entry points share these steps: ltc_insert_many (per-event and
 * batch inserts), ltc_place (timed inserts) and ltc_sweep (the timed
 * CLOCK and end_period).  Each adds to the ltc_* deltas, which the caller
 * reads and zeroes, and, when `touched` is not NULL, marks every slot
 * whose key, frequency or persistency it changed (the cell listener's
 * notification); the caller zeroes that mask.
 */
#include <stdint.h>

#define EMPTY_KEY UINT64_MAX

enum { POLICY_LONGTAIL = 0, POLICY_ONE = 1, POLICY_SPACE_SAVING = 2 };

typedef struct {
    int64_t w, d, m, n; /* geometry, fixed at construction */
    uint64_t seed;
    double alpha, beta;
    int64_t policy;
    /* ClockPointer._acc, hand, scanned_in_period and the period's flag
     * bits: copied in before and out after each call. */
    int64_t acc, hand, scanned, set_bit, harvest_bit;
    /* Deltas of the ltc_significance_decrements, ltc_evictions,
     * ltc_longtail_replacements and ltc_harvests totals since the caller
     * last zeroed them. */
    int64_t decrements, evictions, longtail, harvests;
    /* The columns (fixed for the table's life) and the touched mask. */
    uint64_t *keys;
    int64_t *freqs, *counters, *flags;
    uint8_t *touched;
} ltc_state;

static uint64_t splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static double score(const ltc_state *s, int64_t j)
{
    return s->alpha * (double)s->freqs[j] + s->beta * (double)s->counters[j];
}

static void touch(const ltc_state *s, int64_t j)
{
    if (s->touched)
        s->touched[j] = 1;
}

static void install(const ltc_state *s, int64_t j, uint64_t item)
{
    s->keys[j] = item;
    s->flags[j] = s->set_bit;
    touch(s, j);
}

static void longtail_initial(const ltc_state *s, int64_t base, int64_t jmin,
                             int64_t *f0, int64_t *c0)
{
    int64_t f2 = INT64_MAX, c2 = INT64_MAX;
    for (int64_t j = base; j < base + s->d; j++) {
        if (j == jmin)
            continue;
        if (s->freqs[j] < f2)
            f2 = s->freqs[j];
        if (s->counters[j] < c2)
            c2 = s->counters[j];
    }
    *f0 = f2 - 1 > 1 ? f2 - 1 : 1;
    *c0 = c2 - 1 > 0 ? c2 - 1 : 0;
    if (*c0 > *f0 - 1)
        *c0 = *f0 - 1;
}

static void decrement_smallest(ltc_state *s, uint64_t item, int64_t base)
{
    int64_t *freqs = s->freqs, *counters = s->counters, *flags = s->flags;
    int64_t jmin = base;
    double smin = score(s, base);
    for (int64_t j = base + 1; j < base + s->d; j++) {
        double sj = score(s, j);
        if (sj < smin) {
            smin = sj;
            jmin = j;
        }
    }
    if (s->policy == POLICY_SPACE_SAVING) {
        s->evictions++;
        freqs[jmin] += 1;
        install(s, jmin, item);
        return;
    }
    s->decrements++;
    if (counters[jmin] > 0) {
        counters[jmin] -= 1;
    } else if (freqs[jmin] > 0) {
        /* Charge the decrement to the oldest pending flag when the flags
         * cover the whole frequency (see LTC._decrement_smallest). */
        int64_t bits = flags[jmin];
        if ((bits & 1) + (bits >> 1 & 1) >= freqs[jmin]) {
            if (bits & s->harvest_bit)
                flags[jmin] = bits & ~s->harvest_bit & 0xFF;
            else
                flags[jmin] = bits & ~s->set_bit & 0xFF;
        }
    }
    if (freqs[jmin] > 0)
        freqs[jmin] -= 1;
    if (score(s, jmin) > 0) {
        touch(s, jmin);
        return;
    }
    int64_t f0 = 1, c0 = 0;
    if (s->policy == POLICY_LONGTAIL && s->d > 1) {
        longtail_initial(s, base, jmin, &f0, &c0);
        s->longtail++;
    }
    s->evictions++;
    freqs[jmin] = f0;
    counters[jmin] = c0;
    install(s, jmin, item);
}

void ltc_place(ltc_state *s, uint64_t item)
{
    uint64_t h = splitmix64(item ^ s->seed);
    uint64_t w = (uint64_t)s->w;
    int64_t base = (int64_t)((w & (w - 1)) ? h % w : h & (w - 1)) * s->d;
    int64_t empty = -1;
    for (int64_t j = base; j < base + s->d; j++) {
        uint64_t key = s->keys[j];
        if (key == item) { /* Case 1: hit. */
            s->freqs[j] += 1;
            s->flags[j] |= s->set_bit;
            touch(s, j);
            return;
        }
        if (key == EMPTY_KEY && empty < 0)
            empty = j;
    }
    if (empty >= 0) { /* Case 2: free cell. */
        s->freqs[empty] = 1;
        s->counters[empty] = 0;
        install(s, empty, item);
        return;
    }
    decrement_smallest(s, item, base); /* Case 3: full bucket. */
}

static void harvest(ltc_state *s, int64_t slot)
{
    int64_t bits = s->flags[slot];
    if (bits & s->harvest_bit) {
        s->flags[slot] = bits & ~s->harvest_bit & 0xFF;
        if (s->keys[slot] != EMPTY_KEY) {
            s->counters[slot] += 1;
            s->harvests++;
            touch(s, slot);
        }
    }
}

/* Harvest the `count` slots from `start` on, wrapping at m.  The CLOCK
 * position is the caller's: count <= m. */
void ltc_sweep(ltc_state *s, int64_t start, int64_t count)
{
    for (int64_t k = 0, slot = start; k < count; k++) {
        harvest(s, slot);
        slot = slot + 1 == s->m ? 0 : slot + 1;
    }
}

/* Apply `count` arrivals of `items` in order.  The caller keeps the CLOCK
 * invariants 0 <= hand < m, 0 <= scanned <= m and 0 <= acc < n, with
 * n + m within int64, so `acc + m` cannot overflow. */
void ltc_insert_many(ltc_state *s, const uint64_t *items, int64_t count)
{
    int64_t m = s->m, n = s->n;
    for (int64_t i = 0; i < count; i++) {
        ltc_place(s, items[i]);
        s->acc += m;
        if (s->acc < n)
            continue;
        int64_t steps = s->acc / n;
        s->acc -= steps * n;
        /* Never scan a slot twice within one period. */
        if (steps > m - s->scanned)
            steps = m - s->scanned;
        if (steps > 0) {
            ltc_sweep(s, s->hand, steps);
            s->hand = (s->hand + steps) % m;
            s->scanned += steps;
        }
    }
}
