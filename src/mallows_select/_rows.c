/* The CSR row kernels of mallows_select.core in C: restricted centers, repeated-insertion sampling, pairwise
 * precedence counts and per-row inversion counts; a whole block of experiment trials, from each trial's center draw
 * through its samples and wins to its positional estimate; the windowed DP of mallows_select.mle; and the byte pass
 * and the row writer of mallows_select.fileio, which read a profile or selection file into CSR rows and write CSR rows
 * out as one.
 *
 * Each routine mirrors its numpy form draw for draw, count for count and choice for choice, and the byte pass the
 * per-line checks of fileio: core builds this file with the system C compiler into the package's __pycache__, loads
 * it through ctypes, and runs those forms wherever it cannot.
 * Row l of a CSR array is items[offsets[l]:offsets[l+1]].
 */
#include <stdint.h>
#include <string.h>

#define GAMMA 0x9E3779B97F4A7C15ULL

/* the splitmix64 finalizer of rng.mix64_array */
static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* The top 63 bits of draw i (i >= 1) of the stream key: rng.draw_matrix shifted right once. */
static uint64_t draw63(uint64_t key, uint64_t i)
{
    return mix64(key + i * GAMMA) >> 1;
}

/* One sample of the m items of center, top first, by repeated insertion into out.  Item k (k >= 1) goes in at index
 * k - d, the items at or past it moving back in a loop (at large beta most steps move none, and a memmove call costs
 * more); d counts the thresholds floor(scaled[j] / cum[k]), j = 0..k, at or below draw start + k of the stream key,
 * the searchsorted of sampling._sample_rows.  Threshold k is 2^63, above every draw, and none falls as j rises, so
 * any rising probes of j < k closed by a bisection of the last bracket find d: the search probes j = 0 (most draws
 * at beta = 2 fall below it), then gallops (2, 6, 14, ...) or, on nearly flat weights (cum[k] > k / 2), bisects.
 */
static void insert_row(int64_t m, uint64_t key, uint64_t start, const int64_t *center, const double *cum,
                       const double *scaled, int64_t *out)
{
    if (m < 1)
        return;
    out[0] = center[0];
    for (int64_t k = 1; k < m; k++) {
        uint64_t u = draw63(key, start + (uint64_t)k);
        int64_t lo = 0, hi = 0;
        for (; hi < k && (uint64_t)(scaled[hi] / cum[k]) <= u; hi = 2 * cum[k] > k ? k : 2 * hi + 2)
            lo = hi + 1;
        if (hi > k)
            hi = k;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if ((uint64_t)(scaled[mid] / cum[k]) <= u)
                lo = mid + 1;
            else
                hi = mid;
        }
        int64_t at = k - lo;
        for (int64_t i = k; i > at; i--)
            out[i] = out[i - 1];
        out[at] = center[k];
    }
}

/* table[x_a][x_b] += 1 for positions a < b of the m items x, in [0, n), table n x n.  Four source items a .. a + 3
 * take each pass over the suffix they share, so each x[b] is loaded once for four rows of the table; their six pairs
 * among themselves are counted first, and a tail of fewer than four sources one by one.
 */
static void count_row(int64_t n, int64_t m, const int64_t *x, int64_t *table)
{
    int64_t a = 0;
    for (; a + 4 <= m; a += 4) {
        int64_t *r0 = table + x[a] * n, *r1 = table + x[a + 1] * n, *r2 = table + x[a + 2] * n,
                *r3 = table + x[a + 3] * n;
        r0[x[a + 1]]++, r0[x[a + 2]]++, r0[x[a + 3]]++, r1[x[a + 2]]++, r1[x[a + 3]]++, r2[x[a + 3]]++;
        for (int64_t b = a + 4; b < m; b++) {
            int64_t y = x[b];
            r0[y]++, r1[y]++, r2[y]++, r3[y]++;
        }
    }
    for (; a + 1 < m; a++) {
        int64_t *ahead = table + x[a] * n;
        for (int64_t b = a + 1; b < m; b++)
            ahead[x[b]]++;
    }
}

/* One sample per row by insert_row: row l of restricted is a restricted center, drawn from the stream keys[l]. */
void sample_rows(int64_t rows, const uint64_t *keys, const int64_t *offsets, const int64_t *restricted,
                 const double *cum, const double *scaled, uint64_t start, int64_t *samples)
{
    for (int64_t l = 0; l < rows; l++)
        insert_row(offsets[l + 1] - offsets[l], keys[l], start, restricted + offsets[l], cum, scaled,
                   samples + offsets[l]);
}

/* Whether any of the m items x lies outside [0, n): every item-range check of the routines below */
static int outside(int64_t m, const int64_t *x, int64_t n)
{
    for (int64_t a = 0; a < m; a++)
        if (x[a] < 0 || x[a] >= n)
            return 1;
    return 0;
}

/* counts[l / per][x_a][x_b] += 1 for every row l and positions a < b of its items x, counts holding groups n x n
 * blocks.  Returns -1 at the first row with an item outside [0, n) or a group past the last, before it counts that
 * row, and 0 otherwise.
 */
int pair_counts(int64_t n, int64_t rows, int64_t groups, int64_t per, const int64_t *offsets, const int64_t *items,
                int64_t *counts)
{
    for (int64_t l = 0; l < rows; l++) {
        const int64_t *x = items + offsets[l];
        int64_t m = offsets[l + 1] - offsets[l];
        if (l / per >= groups || outside(m, x, n))
            return -1;
        count_row(n, m, x, counts + l / per * n * n);
    }
    return 0;
}

/* x[0..size) shuffled in place by the Fisher-Yates of rng.shuffle_runs: step k swaps position size - 1 - k with
 * below(size - k) of draw first + k of the stream key, below being rng._below_array, the high 64 bits of u * bound
 */
static void shuffle(int64_t *x, int64_t size, uint64_t key, uint64_t first)
{
    for (int64_t k = 0; k + 1 < size; k++) {
        int64_t i = size - 1 - k;
        int64_t j = (int64_t)(((unsigned __int128)mix64(key + (first + (uint64_t)k) * GAMMA) * (uint64_t)(i + 1)) >> 64);
        int64_t swap = x[i];
        x[i] = x[j];
        x[j] = swap;
    }
}

/* The next candidate set with two members or more of the Bernoulli stream key, as in sampling._bernoulli_members:
 * returns its count and writes its members to out, in the order of the n items of order.  Candidate c, from
 * *candidate on, takes draws start + c n + 1 .. start + (c + 1) n, item i a member where its draw falls below
 * threshold. */
static int64_t bernoulli_set(int64_t n, uint64_t key, uint64_t start, uint64_t threshold, uint64_t *candidate,
                             const int64_t *order, int64_t *out)
{
    int64_t m;
    do {
        uint64_t base = start + (*candidate)++ * (uint64_t)n + 1;
        m = 0;
        for (int64_t k = 0; k < n; k++) {
            out[m] = order[k];
            m += draw63(key, base + (uint64_t)order[k]) < threshold;
        }
    } while (m < 2);
    return m;
}

/* The r sets of sampling.generate_selection's bernoulli_random kind from draw start + 1 of the stream key, as CSR rows
 * (offsets r + 1, items r n) in the order of order, range(n).  Returns the counter after the last candidate. */
uint64_t bernoulli_rows(int64_t n, int64_t r, uint64_t key, uint64_t start, uint64_t threshold, const int64_t *order,
                        int64_t *offsets, int64_t *items)
{
    uint64_t candidate = 0;
    offsets[0] = 0;
    for (int64_t l = 0; l < r; l++)
        offsets[l + 1] = offsets[l] + bernoulli_set(n, key, start, threshold, &candidate, order, items + offsets[l]);
    return start + candidate * (uint64_t)n;
}

/* The trial block of experiments._cell_block: row t of centers and estimates (T x n) and wins[t] (n x n, zeroed by
 * the caller) for trial first + t, the stream child(first + t) of root, whose children 0 .. 3 (rng.child_key_grid)
 * key its center, selection, profile and tie-breaks.
 *
 * The center is planted (n items) or, where planted is NULL, the Fisher-Yates of rng.permutation_rows from draws
 * 1 .. n - 1.  Set l of a trial is members[l] (an r x n mask shared by all trials) or, where members is NULL, the
 * l-th set of bernoulli_set from draw 1 of the selection stream.  Its restricted center holds the center's items that
 * are members, in center order; each filter stores every item and adds its test to the count, as a branch on a test
 * that holds for about half the items often mispredicts.  Its sample takes draws 1.. of the stream child(l) of the
 * profile key.  The estimate is estimators._order_by_scores of the estimators._beaten_by scores: the items by a
 * stable counting sort of their scores, each tie group shuffled, in ascending score order, from draw before + 1 of the
 * tie-break stream, before counting the draws of the groups before it.  work holds 3n + 1 items.  Returns -1 before
 * it draws, at a planted item outside [0, n), and 0 otherwise.
 */
int cell_block(int64_t trials, int64_t n, int64_t r, uint64_t root, uint64_t first, const int64_t *planted,
               const uint8_t *members, uint64_t threshold, const double *cum, const double *scaled, int64_t *work,
               int64_t *centers, int64_t *wins, int64_t *estimates)
{
    if (planted != NULL && outside(n, planted, n))
        return -1;
    int64_t *restricted = work, *sample = work + n, *end = work + 2 * n, *score = restricted;
    for (int64_t t = 0; t < trials; t++) {
        uint64_t trial = mix64(root ^ mix64(first + (uint64_t)t + GAMMA)), key[4];
        for (int64_t j = 0; j < 4; j++)
            key[j] = mix64(trial ^ mix64((uint64_t)j + GAMMA));
        int64_t *center = centers + t * n, *table = wins + t * n * n, *estimate = estimates + t * n;
        for (int64_t k = 0; k < n; k++)
            center[k] = planted != NULL ? planted[k] : k;
        if (planted == NULL)
            shuffle(center, n, key[0], 1);
        uint64_t candidate = 0;
        for (int64_t l = 0; l < r; l++) {
            int64_t m = 0;
            if (members != NULL) {
                for (int64_t k = 0; k < n; k++) {
                    restricted[m] = center[k];
                    m += members[l * n + center[k]] != 0;
                }
            } else {
                m = bernoulli_set(n, key[1], 0, threshold, &candidate, center, restricted);
            }
            insert_row(m, mix64(key[2] ^ mix64((uint64_t)l + GAMMA)), 0, restricted, cum, scaled, sample);
            count_row(n, m, sample, table);
        }
        /* score[i]: the opponents j != i with wins[j][i] >= wins[i][j]; end[s], once the items are placed: the items
         * of score s or less, where group s ends */
        memset(score, 0, (size_t)n * sizeof *score);
        memset(end, 0, (size_t)(n + 1) * sizeof *end);
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = i + 1; j < n; j++) {
                score[i] += table[j * n + i] >= table[i * n + j];
                score[j] += table[i * n + j] >= table[j * n + i];
            }
        for (int64_t i = 0; i < n; i++)
            end[score[i] + 1]++;
        for (int64_t s = 0; s < n; s++)
            end[s + 1] += end[s];
        for (int64_t i = 0; i < n; i++)
            estimate[end[score[i]]++] = i;
        uint64_t before = 0;
        for (int64_t s = 0, head = 0; s < n; head = end[s++]) {
            int64_t size = end[s] - head;
            if (size > 1) {
                shuffle(estimate + head, size, key[3], before + 1);
                before += (uint64_t)(size - 1);
            }
        }
    }
    return 0;
}

/* C(a, b) for 0 <= a <= 61 and b >= 0, zero where b > a: each partial product j * C(a - b + j, j) stays below 2^64 */
static uint64_t choose(int64_t a, int64_t b)
{
    uint64_t c = 1;
    for (int64_t j = 1; j <= b; j++)
        c = c * (uint64_t)(a - b + j) / (uint64_t)j;
    return c;
}

/* The next larger mask with as many bits set (Gosper's step), or 0 after 0 */
static uint64_t next_mask(uint64_t mask)
{
    uint64_t low = mask & -mask, up = mask + low;
    return low ? up | ((up ^ mask) >> 2) / low : 0;
}

/* The index of mask among the ascending masks of its popcount: C(c_1, 1) + C(c_2, 2) + ... over its bits c_1 < c_2 */
static int64_t mask_index(uint64_t mask)
{
    int64_t index = 0;
    for (int64_t i = 1; mask; mask &= mask - 1, i++)
        index += (int64_t)choose(__builtin_ctzll(mask), i);
    return index;
}

/* The window [lo, hi] of position t and the width and popcount of its state masks, as in mle._dp_window_max */
static void window(int64_t n, int64_t R, int64_t t, int64_t *lo, int64_t *hi, int64_t *width, int64_t *k)
{
    *lo = t > R ? t - R : 0;
    *hi = t + R < n - 1 ? t + R : n - 1;
    *width = *hi - *lo + 1 - (*hi == t + R);
    *k = t - *lo;
}

/* table[a * w + c] = the wins of element lo + c over the elements first + j, j a bit of a < 2^bits: the subset sums
 * of one half of a window's state masks, by the lowest-bit recurrence
 */
static void subset_sums(int64_t n, const int64_t *wins, int64_t lo, int64_t w, int64_t first, int64_t bits,
                        int64_t *table)
{
    for (int64_t c = 0; c < w; c++)
        table[c] = 0;
    for (uint64_t a = 1; a < (uint64_t)1 << bits; a++) {
        const int64_t *rest = table + (a & (a - 1)) * w, *column = wins + lo * n + first + __builtin_ctzll(a);
        for (int64_t c = 0; c < w; c++)
            table[a * w + c] = rest[c] + column[c * n];
    }
}

/* The windowed DP of mle._dp_window_max on wins (n x n, relabeled so the anchor is the identity) at radius R, with
 * n >= 2 and 0 <= R <= n - 1: writes the placement sequence to seq and returns its score.
 *
 * Position t's states are its window's masks in ascending order, stepped by next_mask, so a state's index is its
 * index in mle._popcount_masks.  Sweeping t down from n - 1, a state's value is the best over its free slots c of
 * base[lo + c] (the wins of element lo + c over every element from lo on) less the wins over the placed slots (two
 * half-window tables of subset sums) plus the successor's value, found through rank, the indices of the masks of
 * position t + 1.  The first maximum is kept, so the smallest c wins ties as in the numpy argmax.  The forward walk
 * then reads the stored choices from the empty mask.
 *
 * Every buffer is the caller's, with W the widest state mask: base holds n values, half (2^(W/2) + 2^(W - W/2)) *
 * (W + 1), rank 2^W, values twice the largest layer and choices every layer of positions 0..n-1.  A layer's indices
 * fit rank's int32 up to W = 33, past any table that memory holds.  Every value is a sum of wins entries, which the
 * caller keeps below 2^53 in magnitude, so no sum overflows.
 */
int64_t window_dp(int64_t n, int64_t R, const int64_t *wins, int64_t *base, int64_t *half, int32_t *rank,
                  int64_t *values, uint8_t *choices, int64_t *seq)
{
    int64_t lo, hi, width, k, offset = 0, largest = 1;
    for (int64_t t = 0; t < n; t++) {
        window(n, R, t, &lo, &hi, &width, &k);
        int64_t count = (int64_t)choose(width, k);
        offset += count;
        largest = count > largest ? count : largest;
    }
    /* position n holds the full mask alone, of value 0 */
    window(n, R, n, &lo, &hi, &width, &k);
    int64_t *v_next = values, *v = values + largest, *swap;
    v_next[0] = 0;
    rank[((uint64_t)1 << k) - 1] = 0;
    int64_t entered = n; /* base[e] is the wins of e over the elements from entered on, for e in [entered, hi] */
    for (int64_t t = n - 1; t >= 0; t--) {
        window(n, R, t, &lo, &hi, &width, &k);
        int64_t w = hi - lo + 1, h = width / 2, shift = t >= R, count = (int64_t)choose(width, k);
        while (entered > lo) {
            entered--;
            for (int64_t e = entered + 1; e <= hi; e++)
                base[e] += wins[e * n + entered];
            base[entered] = 0;
            for (int64_t j = entered; j < n; j++)
                base[entered] += wins[entered * n + j];
        }
        int64_t *low = half, *high = half + ((int64_t)1 << h) * w;
        subset_sums(n, wins, lo, w, lo, h, low);
        subset_sums(n, wins, lo, w, lo + h, width - h, high);
        uint64_t first = ((uint64_t)1 << k) - 1, low_bits = ((uint64_t)1 << h) - 1, slots = ((uint64_t)1 << w) - 1;
        offset -= count;
        uint64_t s = first;
        for (int64_t i = 0; i < count; i++, s = next_mask(s)) {
            const int64_t *low_row = low + (s & low_bits) * w, *high_row = high + (s >> h) * w;
            /* when the window slides, slot 0 leaves it, so it must be placed by now */
            uint64_t free = shift && !(s & 1) ? 1 : ~s & slots;
            int64_t best = INT64_MIN, choice = 0;
            for (; free; free &= free - 1) {
                int64_t c = __builtin_ctzll(free);
                int64_t value = base[lo + c] - low_row[c] - high_row[c] + v_next[rank[(s | (uint64_t)1 << c) >> shift]];
                int better = value > best;
                best = better ? value : best;
                choice = better ? c : choice;
            }
            v[i] = best;
            choices[offset + i] = (uint8_t)choice;
        }
        s = first;
        for (int64_t i = 0; i < count; i++, s = next_mask(s))
            rank[s] = (int32_t)i;
        swap = v_next, v_next = v, v = swap;
    }
    uint64_t mask = 0;
    for (int64_t t = 0; t < n; t++) {
        window(n, R, t, &lo, &hi, &width, &k);
        int64_t c = choices[offset + mask_index(mask)];
        seq[t] = lo + c;
        mask |= (uint64_t)1 << c;
        mask >>= t >= R;
        offset += (int64_t)choose(width, k);
    }
    return v_next[0];
}

/* Sort x[0..m) ascending in place by heapsort: O(m log m) for any order, with no buffer */
static void heap_sort(int64_t m, int64_t *x)
{
    for (int64_t end = m, i = m / 2; end > 1;) {
        int64_t top, root, child;
        if (i > 0) { /* heapify: sift x[--i] down */
            top = x[--i];
            root = i;
        } else { /* move the largest to the end, then sift the last item down from the root */
            top = x[--end];
            x[end] = x[0];
            root = 0;
        }
        while ((child = 2 * root + 1) < end) {
            child += child + 1 < end && x[child + 1] > x[child];
            if (x[child] <= top)
                break;
            x[root] = x[child];
            root = child;
        }
        x[root] = top;
    }
}

/* One part of a line at *at: runs of one to nine ASCII digits joined by single commas, written to out from index
 * *count while it stays below capacity.  Each value v lies below n with low <= stamp[v] < mark and is then stamped
 * mark; *rising is cleared at a value no larger than the one before.  Returns the byte after the part, or NULL
 * where the part breaks a rule.
 */
static inline __attribute__((always_inline)) const uint8_t *scan_tokens(const uint8_t *at, int64_t n,
    int64_t capacity, int64_t *stamp, int64_t low, int64_t mark, int64_t *count, int64_t *out, int *rising)
{
    for (int64_t last = -1;; at++) {
        int64_t value = 0, digits = 0;
        for (; *at >= '0' && *at <= '9'; at++, digits++) {
            if (digits == 9)
                return NULL;
            value = value * 10 + (*at - '0');
        }
        if (digits == 0 || value >= n || *count >= capacity || stamp[value] < low || stamp[value] >= mark)
            return NULL;
        stamp[value] = mark;
        *rising &= value > last;
        out[(*count)++] = last = value;
        if (*at != ',')
            return at;
    }
}

/* The byte pass of fileio._byte_pass over text, its lines each ended by a newline: 0 once every line takes one
 * layout, "S:<set>|R:<ranking>\n" where ranked and "S:<set>\n" otherwise, with a set of two or more distinct items
 * below n and a ranking that is a permutation of its set; nonzero at the first line that breaks a rule.
 *
 * On 0, offsets (lines + 1) and set_items hold the CSR rows of the sets, each sorted (a row that is not ascending
 * by a heapsort), and rank_items the rankings, where ranked; the item arrays hold exactly set_capacity and
 * rank_capacity items.  stamp holds n zeros: an item's entry marks the last line whose set (2l + 1) or ranking
 * (2l + 2) holds it, each token checked as it is read, so each ranking holds distinct items of its set, and, the two
 * capacities being equal for a ranked file, as many as its set.  A part ends at a byte that is neither a digit nor a
 * comma and a line at a newline, and the text must end in one, so no read passes its last byte.
 */
int scan_rows(const uint8_t *text, int64_t size, int64_t lines, int64_t n, int ranked, int64_t set_capacity,
              int64_t rank_capacity, int64_t *stamp, int64_t *offsets, int64_t *set_items, int64_t *rank_items)
{
    const uint8_t *at = text, *end = text + size;
    int64_t sets = 0, ranks = 0;
    offsets[0] = 0;
    if (lines > 0 && (size < 1 || end[-1] != '\n'))
        return 1;
    for (int64_t l = 0; l < lines; l++) {
        int64_t first = sets;
        int rising = 1;
        if (at == end || at[0] != 'S' || at[1] != ':')
            return 1;
        at = scan_tokens(at + 2, n, set_capacity, stamp, 0, 2 * l + 1, &sets, set_items, &rising);
        if (at == NULL || sets - first < 2)
            return 1;
        if (!rising)
            heap_sort(sets - first, set_items + first);
        if (ranked) {
            if (at[0] != '|' || at[1] != 'R' || at[2] != ':')
                return 1;
            at = scan_tokens(at + 3, n, rank_capacity, stamp, 2 * l + 1, 2 * l + 2, &ranks, rank_items, &rising);
            if (at == NULL)
                return 1;
        }
        if (*at++ != '\n')
            return 1;
        offsets[l + 1] = sets;
    }
    return at != end || sets != set_capacity || ranks != (ranked ? rank_capacity : 0);
}

/* out[l] = the pairs a < b of row l whose items x (or their relabel entries, where relabel is not NULL, copied once
 * into work, which holds the longest row) stand in descending order: the row's inversions, counted pair by pair, as
 * count_row steps, four items a .. a + 3 a pass over their suffix, each x[b] tallied against the four into four
 * independent counts.  Returns -1 at the first row with an item outside [0, size) of relabel, before it counts that
 * row, and 0 otherwise.
 */
int row_inversions(int64_t rows, const int64_t *offsets, const int64_t *items, const int64_t *relabel, int64_t size,
                   int64_t *work, int64_t *out)
{
    for (int64_t l = 0; l < rows; l++) {
        const int64_t *x = items + offsets[l];
        int64_t m = offsets[l + 1] - offsets[l], count = 0;
        if (relabel != NULL) {
            if (outside(m, x, size))
                return -1;
            for (int64_t a = 0; a < m; a++)
                work[a] = relabel[x[a]];
            x = work;
        }
        int64_t a = 0;
        for (; a + 4 <= m; a += 4) {
            int64_t x0 = x[a], x1 = x[a + 1], x2 = x[a + 2], x3 = x[a + 3], c0 = 0, c1 = 0, c2 = 0, c3 = 0;
            count += (x1 < x0) + (x2 < x0) + (x3 < x0) + (x2 < x1) + (x3 < x1) + (x3 < x2);
            for (int64_t b = a + 4; b < m; b++) {
                int64_t y = x[b];
                c0 += y < x0, c1 += y < x1, c2 += y < x2, c3 += y < x3;
            }
            count += c0 + c1 + c2 + c3;
        }
        for (; a + 1 < m; a++)
            for (int64_t b = a + 1; b < m; b++)
                count += x[b] < x[a];
        out[l] = count;
    }
    return 0;
}

/* The m items x at *at, each as its label of labels and a comma: returns the byte after the last comma.  Entry x of
 * labels is 8 bytes, the digits of x, a comma and zeros, with the count of digits in its last byte; each entry is
 * copied whole, and the bytes past its comma are written over by what follows.
 */
static uint8_t *put_part(uint8_t *at, int64_t m, const int64_t *x, const uint8_t *labels)
{
    for (int64_t a = 0; a < m; a++) {
        const uint8_t *label = labels + 8 * x[a];
        memcpy(at, label, 8);
        at += label[7] + 1;
    }
    return at;
}

/* The lines of fileio._format_rows written to out, one per CSR row l: "S:<set>|R:<ranking>\n", the row of set_items
 * and that of rank_items, or "S:<set>\n" where rank_items is NULL, each part's last comma overwritten by the byte
 * after it.  labels holds n entries, as put_part reads them.  Returns the count of bytes written, or -1 at the first
 * row with an item outside [0, n), before it writes that row.  With d the digits of n - 1, a row of m items writes at
 * most 2 + m (d + 1) bytes for its set and as many again for its ranking, and the last entry copied ends at most
 * 6 bytes past the last byte written, all of which the caller's out holds.
 */
int64_t format_rows(int64_t n, int64_t rows, const int64_t *offsets, const int64_t *set_items,
                    const int64_t *rank_items, const uint8_t *labels, uint8_t *out)
{
    uint8_t *at = out;
    for (int64_t l = 0; l < rows; l++) {
        int64_t first = offsets[l], m = offsets[l + 1] - first;
        if (outside(m, set_items + first, n) || (rank_items != NULL && outside(m, rank_items + first, n)))
            return -1;
        *at++ = 'S';
        *at++ = ':';
        at = put_part(at, m, set_items + first, labels) - (m > 0);
        if (rank_items != NULL) {
            *at++ = '|';
            *at++ = 'R';
            *at++ = ':';
            at = put_part(at, m, rank_items + first, labels) - (m > 0);
        }
        *at++ = '\n';
    }
    return at - out;
}

/* Row l of restricted: the items of row l of items in the order of center (n items), at[i] the center position of
 * item i, read off a bitmap over the positions, bits (n + 63) / 64 zero words that it leaves zero: O(m + n / 64) a
 * row.  Returns -1 at the first row with an item outside [0, n) or a duplicate, and 0 otherwise.
 */
int center_rows(int64_t n, int64_t rows, const int64_t *offsets, const int64_t *items, const int64_t *center,
                const int64_t *at, uint64_t *bits, int64_t *restricted)
{
    for (int64_t l = 0; l < rows; l++) {
        const int64_t *x = items + offsets[l];
        int64_t m = offsets[l + 1] - offsets[l], *out = restricted + offsets[l];
        if (outside(m, x, n))
            return -1;
        for (int64_t k = 0; k < m; k++)
            bits[at[x[k]] >> 6] |= (uint64_t)1 << (at[x[k]] & 63);
        for (int64_t w = 0; w < (n + 63) / 64; w++)
            for (; bits[w]; bits[w] &= bits[w] - 1)
                *out++ = center[w * 64 + __builtin_ctzll(bits[w])];
        if (out != restricted + offsets[l + 1])
            return -1;
    }
    return 0;
}
