/* Per-row forest traversal reduced to second-class vote counts.
 *
 * The native twin of _RoutedForest.count_second in backend.py, which
 * stays the fallback and the reference.  Trees are walked one at a
 * time, a block of BLOCK rows in lockstep.  Each step is the
 * branch-free node = goto + (x[f] > cut); leaves self-loop, and a block
 * leaves a tree once no slot sits on an internal node, or after
 * max_depth steps (the numpy loop's bound).  counts[r] is the sum of
 * leaf_is_second over row r's leaves.  The caller has checked the node
 * table: every goto (+ 1 at internal nodes) is a node id and every
 * feature a column of x.  No Python is called, so ctypes runs these
 * without the GIL.
 *
 * Build: cc -O2 -shared -fPIC _traverse.c (_native.py does this).
 */
#include <stdint.h>

#define BLOCK 32

#define ROUTE(NAME, XT, STEP, ...)                                          \
void NAME(__VA_ARGS__, const int64_t *roots, int64_t n_trees,              \
          int64_t max_depth, const int64_t *leaf_is_second, const XT *x,   \
          int64_t n_rows, int64_t n_features, int64_t *counts)             \
{                                                                          \
    int64_t node[BLOCK];                                                   \
    for (int64_t r = 0; r < n_rows; r++)                                   \
        counts[r] = 0;                                                     \
    for (int64_t t = 0; t < n_trees; t++) {                                \
        for (int64_t r0 = 0; r0 < n_rows; r0 += BLOCK) {                   \
            const int64_t nb = n_rows - r0 < BLOCK ? n_rows - r0 : BLOCK;  \
            const XT *xb = x + r0 * n_features;                            \
            for (int64_t i = 0; i < nb; i++)                               \
                node[i] = roots[t];                                        \
            for (int64_t d = 0; d < max_depth; d++) {                      \
                int live = 0;                                              \
                for (int64_t i = 0; i < nb; i++) {                         \
                    const XT *row = xb + i * n_features;                   \
                    STEP                                                   \
                }                                                          \
                if (!live)                                                 \
                    break;                                                 \
            }                                                              \
            for (int64_t i = 0; i < nb; i++)                               \
                counts[r0 + i] += leaf_is_second[node[i]];                 \
        }                                                                  \
    }                                                                      \
}

/* QuantizedForest records: (goto << 32) | (feature << 16) | code over
 * uint8 codes.  A leaf has code 255 and feature 0: no code exceeds it. */
#define STEP_U8                                                             \
    const int64_t rec = packed[node[i]];                                   \
    const uint8_t cut = (uint8_t)rec;                                      \
    live |= cut != 255;                                                    \
    node[i] = (rec >> 32) + (row[(rec >> 16) & 0xFFFF] > cut);

/* FlatForest rows fg = (feature, goto) with float64 thresholds.  A leaf
 * has feature -1: it reads row[0] instead, and never steps. */
#define STEP_FLOAT                                                          \
    const int64_t f = fg[2 * node[i]];                                     \
    const int inner = f >= 0;                                              \
    live |= inner;                                                         \
    node[i] = fg[2 * node[i] + 1]                                          \
            + (inner & (row[inner ? f : 0] > threshold[node[i]]));

ROUTE(count_second_u8, uint8_t, STEP_U8, const int64_t *packed)
ROUTE(count_second_f64, double, STEP_FLOAT,
      const int64_t *fg, const double *threshold)
