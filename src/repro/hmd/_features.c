/* DVFS window featurization: one sweep per (window, channel).
 *
 * The native twin of DvfsFeatureExtractor.extract_windows in
 * features.py, whose numpy body stays the fallback and the reference.
 * It writes every column of the output matrix except the spectral
 * bands, plus the centred normalised series those bands are computed
 * from (the rfft stays in numpy).  Results are bitwise equal to the
 * numpy kernel:
 *  - the normalised series is a per-channel lookup table of s / denom
 *    built by numpy, so no division is done per step;
 *  - every float sum is numpy's pairwise summation (pairwise_sum in
 *    numpy's loops_utils.h), which ndarray.sum applies to a contiguous
 *    line: 8 accumulators up to 128 terms, otherwise a split at n/2
 *    rounded down to a multiple of 8; the sum is then added to the
 *    reduction's identity, 0.0, which turns a -0.0 sum into +0.0;
 *  - products are rounded before they are summed, as numpy stores them;
 *    the build passes -ffp-contract=off so no multiply-add is fused;
 *  - integer counts are divided by the same denominators as numpy's;
 *  - a step's diff is taken in int64, as the numpy kernel takes it
 *    after widening unsigned states, so no diff wraps.
 *
 * plan (int64) = n_channels, window_steps, n_cols, first xcorr column,
 * then per channel: states k, first residency column, first statistic
 * column, offset of its table in lut.  Statistic columns hold mean,
 * std, transition rate, up rate, mean jump, max jump, max-state,
 * min-state and low-half fractions, mean dwell, longest-run fraction
 * and lag-1 autocorrelation, then four spectral bands (not written).
 * States are addressed by byte strides, so any aligned view serves;
 * the temperature is contiguous float64.  Returns 1, with the outputs
 * partly written, at the first state outside [0, k), else 0.  No
 * Python is called, so ctypes runs these without the GIL.
 *
 * Build: cc -O2 -ffp-contract=off -fno-math-errno -shared -fPIC
 * (_native.py does this).
 */
#include <math.h>
#include <stdint.h>

#define PAIRWISE(NAME, TERM)                                                \
static double NAME##_(const double *a, const double *b, double m,          \
                      int64_t n)                                           \
{                                                                          \
    if (n < 8) {                                                           \
        double res = 0.;                                                   \
        for (int64_t i = 0; i < n; i++)                                    \
            res += TERM(i);                                                \
        return res;                                                        \
    }                                                                      \
    if (n <= 128) {                                                        \
        double r[8];                                                       \
        int64_t i;                                                         \
        for (int j = 0; j < 8; j++)                                        \
            r[j] = TERM(j);                                                \
        for (i = 8; i < n - n % 8; i += 8)                                 \
            for (int j = 0; j < 8; j++)                                    \
                r[j] += TERM(i + j);                                       \
        double res = ((r[0] + r[1]) + (r[2] + r[3]))                       \
                   + ((r[4] + r[5]) + (r[6] + r[7]));                      \
        for (; i < n; i++)                                                 \
            res += TERM(i);                                                \
        return res;                                                        \
    }                                                                      \
    int64_t n2 = n / 2;                                                    \
    n2 -= n2 % 8;                                                          \
    return NAME##_(a, b, m, n2) + NAME##_(a + n2, b + n2, m, n - n2);      \
}                                                                          \
static double NAME(const double *a, const double *b, double m, int64_t n) \
{                                                                          \
    return 0. + NAME##_(a, b, m, n);                                       \
}

#define SUM(i) a[i]
#define DOT(i) (a[i] * b[i])
#define SQUARED_DEVIATION(i) ((a[i] - m) * (a[i] - m))

PAIRWISE(pairwise_sum, SUM)
PAIRWISE(pairwise_dot, DOT)
PAIRWISE(pairwise_squared_deviation, SQUARED_DEVIATION)

/* Integer statistics of one (window, channel) series. */
typedef struct {
    int64_t transitions, ups, jump_sum, max_jump, max_run;
} Moves;

/* The dtype-specific part: one pass over a channel's T states, stride
 * bytes apart, that writes the normalised series x and the residency
 * counts hist and fills m.  prev starts at the first state, so step 0
 * starts the first run and moves nowhere.  Returns 1 at a state outside
 * [0, k). */
typedef int (*Sweep)(const char *states, int64_t stride, int64_t T,
                     int64_t k, const double *table, double *x,
                     double *hist, Moves *m);

#define SWEEP(NAME, ST)                                                     \
static int NAME(const char *states, int64_t stride, int64_t T, int64_t k,  \
                const double *table, double *x, double *hist, Moves *m)    \
{                                                                          \
    int64_t transitions = 0, ups = 0, jump_sum = 0, max_jump = 0;          \
    int64_t run = 0, max_run = 0;                                          \
    ST prev = *(const ST *)states;                                         \
    for (int64_t s = 0; s < k; s++)                                        \
        hist[s] = 0.;                                                      \
    for (int64_t t = 0; t < T; t++) {                                      \
        const ST s = *(const ST *)(states + t * stride);                   \
        if (s < 0 || (int64_t)s >= k)                                      \
            return 1;                                                      \
        x[t] = table[s];                                                   \
        hist[s] += 1.;                                                     \
        const int64_t d = (int64_t)s - (int64_t)prev;                      \
        const int64_t jump = d < 0 ? -d : d;                               \
        ups += d > 0;                                                      \
        jump_sum += jump;                                                  \
        max_jump = jump > max_jump ? jump : max_jump;                      \
        transitions += d != 0;                                             \
        run = d != 0 ? 1 : run + 1;                                        \
        max_run = run > max_run ? run : max_run;                           \
        prev = s;                                                          \
    }                                                                      \
    m->transitions = transitions;                                          \
    m->ups = ups;                                                          \
    m->jump_sum = jump_sum;                                                \
    m->max_jump = max_jump;                                                \
    m->max_run = max_run;                                                  \
    return 0;                                                              \
}

static int64_t features(Sweep sweep, const int64_t *plan, const double *lut,
                        const char *states, int64_t row_stride,
                        int64_t col_stride, const double *temperature,
                        int64_t n_windows, double *centered, double *out)
{
    const int64_t n_channels = plan[0], T = plan[1], n_cols = plan[2];
    const double steps = (double)T, moves = (double)(T - 1);
    double var[n_channels > 0 ? n_channels : 1];
    for (int64_t w = 0; w < n_windows; w++) {
        double *row = out + w * n_cols;
        double *cw = centered + w * n_channels * T;
        for (int64_t c = 0; c < n_channels; c++) {
            const int64_t *ch = plan + 4 + 4 * c;
            const int64_t k = ch[0];
            const double *table = lut + ch[3];
            double *hist = row + ch[1], *stat = row + ch[2];
            double *x = cw + c * T;
            Moves m;
            if (sweep(states + w * T * row_stride + c * col_stride,
                      row_stride, T, k, table, x, hist, &m))
                return 1;
            int64_t low = 0;
            for (int64_t s = 0; s < k; s++)
                low += table[s] < 0.5 ? (int64_t)hist[s] : 0;
            const double mean = pairwise_sum(x, x, 0., T) / steps;
            for (int64_t t = 0; t < T; t++)
                x[t] -= mean;
            var[c] = pairwise_dot(x, x, 0., T);
            stat[0] = mean;
            stat[1] = sqrt(var[c] / steps);
            stat[2] = (double)m.transitions / moves;
            stat[3] = (double)m.ups / moves;
            stat[4] = (double)m.jump_sum / moves;
            stat[5] = (double)m.max_jump;
            stat[6] = hist[k - 1] / steps;
            stat[7] = hist[0] / steps;
            stat[8] = (double)low / steps;
            stat[9] = steps / (double)(m.transitions + 1);
            stat[10] = (double)m.max_run / steps;
            stat[11] = var[c] > 1e-12
                     ? pairwise_dot(x, x + 1, 0., T - 1) / var[c] : 0.;
            for (int64_t s = 0; s < k; s++)
                hist[s] /= steps;
        }
        double *xcorr = row + plan[3];
        for (int64_t a = 0; a < n_channels; a++)
            for (int64_t b = a + 1; b < n_channels; b++) {
                const double std_a = row[plan[4 + 4 * a + 2] + 1];
                const double std_b = row[plan[4 + 4 * b + 2] + 1];
                double r = 0.;
                if (std_a > 1e-9 && std_b > 1e-9) {
                    r = pairwise_dot(cw + a * T, cw + b * T, 0., T)
                      / sqrt(var[a] * var[b]);
                    r = r < -1. ? -1. : r > 1. ? 1. : r;
                }
                *xcorr++ = r;
            }
        const double *temp = temperature + w * T;
        const double temp_mean = pairwise_sum(temp, temp, 0., T) / steps;
        row[n_cols - 3] = temp_mean;
        row[n_cols - 2] =
            sqrt(pairwise_squared_deviation(temp, temp, temp_mean, T) / steps);
        row[n_cols - 1] = (temp[T - 1] - temp[0]) / moves;
    }
    return 0;
}

/* One entry point per state dtype: dvfs_features_int8, ... */
#define ENTRY(ST)                                                           \
SWEEP(sweep_##ST, ST##_t)                                                  \
int64_t dvfs_features_##ST(const int64_t *plan, const double *lut,         \
                           const char *states, int64_t row_stride,         \
                           int64_t col_stride, const double *temperature,  \
                           int64_t n_windows, double *centered,            \
                           double *out)                                    \
{                                                                          \
    return features(sweep_##ST, plan, lut, states, row_stride, col_stride, \
                    temperature, n_windows, centered, out);                \
}

ENTRY(int8)
ENTRY(int16)
ENTRY(int32)
ENTRY(int64)
ENTRY(uint8)
