/* The CSR row kernels of mallows_select.core in C: repeated-insertion sampling and pairwise precedence counts.
 *
 * Each routine mirrors its numpy form draw for draw and count for count: core builds this file with the system C
 * compiler into the package's __pycache__, loads it through ctypes, and runs the numpy forms wherever it cannot.
 * Row l of a CSR array is items[offsets[l]:offsets[l+1]].
 */
#include <stdint.h>
#include <string.h>

#define GAMMA 0x9E3779B97F4A7C15ULL

/* the splitmix64 finalizer of rng.mix64 */
static uint64_t mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* One sample per row by repeated insertion: row l of restricted is a restricted center, top first.  Item k of a row
 * (k >= 1) goes in at index k - d, the items at or past it moving back, where d counts the thresholds
 * floor(scaled[j] / cum[k]), j = 0..k, at or below the top 63 bits of draw start + k of the stream keys[l]: the
 * searchsorted of sampling._sample_rows.  Threshold k is 2^63, above every draw, so the search runs over j < k.
 */
void sample_rows(int64_t rows, const uint64_t *keys, const int64_t *offsets, const int64_t *restricted,
                 const double *cum, const double *scaled, uint64_t start, int64_t *samples)
{
    for (int64_t l = 0; l < rows; l++) {
        const int64_t *center = restricted + offsets[l];
        int64_t *out = samples + offsets[l];
        int64_t m = offsets[l + 1] - offsets[l];
        if (m < 1)
            continue;
        out[0] = center[0];
        for (int64_t k = 1; k < m; k++) {
            uint64_t u = mix64(keys[l] + (start + (uint64_t)k) * GAMMA) >> 1;
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
        int64_t *group = counts + l / per * n * n;
        for (int64_t a = 0; a + 1 < m; a++) {
            int64_t *ahead = group + x[a] * n;
            for (int64_t b = a + 1; b < m; b++)
                ahead[x[b]]++;
        }
    }
    return 0;
}
