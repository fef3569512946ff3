/* The CSR row kernels of mallows_select.core in C: repeated-insertion sampling, pairwise precedence counts, and the
 * two together over a block of experiment trials.
 *
 * Each routine mirrors its numpy form draw for draw and count for count: core builds this file with the system C
 * compiler into the package's __pycache__, loads it through ctypes, and runs the numpy forms wherever it cannot.
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
 * k - d, the items at or past it moving back, where d counts the thresholds floor(scaled[j] / cum[k]), j = 0..k, at
 * or below draw start + k of the stream key: the searchsorted of sampling._sample_rows.  Threshold k is 2^63, above
 * every draw, so the search runs over j < k.
 */
static void insert_row(int64_t m, uint64_t key, uint64_t start, const int64_t *center, const double *cum,
                       const double *scaled, int64_t *out)
{
    if (m < 1)
        return;
    out[0] = center[0];
    for (int64_t k = 1; k < m; k++) {
        uint64_t u = draw63(key, start + (uint64_t)k);
        int64_t lo = 0, hi = k;
        while (lo < hi) {
            int64_t mid = lo + (hi - lo) / 2;
            if ((uint64_t)(scaled[mid] / cum[k]) <= u)
                lo = mid + 1;
            else
                hi = mid;
        }
        int64_t at = k - lo;
        memmove(out + at + 1, out + at, (size_t)(k - at) * sizeof *out);
        out[at] = center[k];
    }
}

/* table[x_a][x_b] += 1 for positions a < b of the m items x, in [0, n), table n x n */
static void count_row(int64_t n, int64_t m, const int64_t *x, int64_t *table)
{
    for (int64_t a = 0; a + 1 < m; a++) {
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
        if (l / per >= groups)
            return -1;
        for (int64_t a = 0; a < m; a++)
            if (x[a] < 0 || x[a] >= n)
                return -1;
        count_row(n, m, x, counts + l / per * n * n);
    }
    return 0;
}

/* The pairwise wins of a block of trials of experiments._cell_block: wins[t] (n x n, zeroed by the caller) counts
 * the pairs of trial t's samples of its r sets, trial t's center being row t of centers (T x n).
 *
 * Set l of a trial is members[l] (an r x n mask shared by all trials) or, where members is NULL, the l-th candidate
 * row with two members or more of the stream selection[t], as in sampling._bernoulli_members: candidate c takes draws
 * c * n + 1 .. c * n + n, item i a member where its draw falls below threshold.  Its restricted center holds the
 * center's items that are members, in center order, and its sample takes draws 1.. of the stream child(l) of
 * profile[t], as rng.child_key_grid derives it.  work holds 2n items.  Returns -1 before it draws, at a center item
 * outside [0, n), and 0 otherwise.
 */
int block_wins(int64_t trials, int64_t n, int64_t r, const int64_t *centers, const uint64_t *profile,
               const uint8_t *members, const uint64_t *selection, uint64_t threshold, const double *cum,
               const double *scaled, int64_t *work, int64_t *wins)
{
    for (int64_t i = 0; i < trials * n; i++)
        if (centers[i] < 0 || centers[i] >= n)
            return -1;
    int64_t *restricted = work, *sample = work + n;
    for (int64_t t = 0; t < trials; t++) {
        const int64_t *center = centers + t * n;
        uint64_t candidate = 0;
        for (int64_t l = 0; l < r; l++) {
            int64_t m = 0;
            if (members != NULL) {
                for (int64_t k = 0; k < n; k++)
                    if (members[l * n + center[k]])
                        restricted[m++] = center[k];
            } else {
                do {
                    uint64_t base = candidate++ * (uint64_t)n + 1;
                    m = 0;
                    for (int64_t k = 0; k < n; k++)
                        if (draw63(selection[t], base + (uint64_t)center[k]) < threshold)
                            restricted[m++] = center[k];
                } while (m < 2);
            }
            insert_row(m, mix64(profile[t] ^ mix64((uint64_t)l + GAMMA)), 0, restricted, cum, scaled, sample);
            count_row(n, m, sample, wins + t * n * n);
        }
    }
    return 0;
}
