/* Per-row forest traversal reduced to second-class vote counts.
 *
 * The native count_second of backend.py's two forest layouts; the
 * float64 numpy loop (FlatForest._route) stays the fallback of both and
 * the reference they are tested against.  Rows are walked in tiles of
 * TILE_BYTES of row data (rounded down to whole blocks, at least one
 * block); within a tile, trees are walked one at a time, a block of
 * BLOCK rows together.  Each step is the branch-free
 * node = goto + (x[f] > cut) for every slot on the block's live list;
 * leaves self-loop, and a slot that stood on a leaf leaves the list
 * through a branch-free write index (slot[kept] = i; kept += live), so
 * a step costs only the slots still routing.  A block leaves a tree
 * once its list is empty, or after max_depth steps (the numpy loop's
 * bound).  counts[r] is the sum of leaf_is_second over row r's leaves.
 *
 * Why tiles: the fleet hands over a whole sweep (thousands of rows) in
 * one call, which pays the node table's cache warm-up and the Python
 * wrappers once (hpc's uint8 walk, 8,192 rows a call: 0.89x the per-row
 * cost of 256).  Untiled, every tree re-reads all the rows: the dvfs
 * forest's 75-feature float64 rows overflow L2, and 4,096 rows a call
 * cost 1.40x the per-row cost of 256.  With 256 KB tiles that read
 * 1.06x, with 64 KB tiles 0.97-0.99x (2-vCPU host, 2 MB L2, medians of
 * interleaved repeats).  hpc's 10-byte code rows fill a tile at 6,528.
 *
 * count_second_u8 takes float64 rows and encodes them itself: a row's
 * code for feature f is the number of f's edges e with !(e >= v),
 * which is searchsorted(edges, v, side="left") for every v (NaN, which
 * numpy sorts last, clears every edge; +-inf and +-0.0 compare as in
 * IEEE), so the codes are BinMapper.transform's bit for bit.  The
 * caller refuses non-finite rows: on NaN, code > cut holds where the
 * float64 walk's NaN > threshold does not.
 *
 * The caller has checked the tables: every goto (+ 1 at internal
 * nodes) is a node id, every feature a column of x, every feature's
 * edge count at most 255 with offsets inside the edge array, and each
 * feature's edges strictly increasing and not NaN.  No Python is
 * called, so ctypes runs these without the GIL.
 *
 * Build: cc -O2 -shared -fPIC _traverse.c (_native.py does this).
 */
#include <stdint.h>

#define BLOCK 128
#define TILE_BYTES (64 * 1024)

#define ROUTE(SPEC, NAME, XT, STEP, ...)                                    \
SPEC NAME(__VA_ARGS__, const int64_t *roots, int64_t n_trees,              \
          int64_t max_depth, const int64_t *leaf_is_second, const XT *x,   \
          int64_t n_rows, int64_t n_features, int64_t *counts)             \
{                                                                          \
    int64_t node[BLOCK];                                                   \
    int slot[BLOCK];                                                       \
    const int64_t row_bytes = n_features * (int64_t)sizeof(XT);            \
    int64_t tile = row_bytes ? TILE_BYTES / row_bytes / BLOCK * BLOCK : 0; \
    if (tile < BLOCK)                                                      \
        tile = BLOCK;                                                      \
    for (int64_t r = 0; r < n_rows; r++)                                   \
        counts[r] = 0;                                                     \
    for (int64_t r1 = 0; r1 < n_rows; r1 += tile) {                        \
      const int64_t end = n_rows - r1 < tile ? n_rows : r1 + tile;         \
      for (int64_t t = 0; t < n_trees; t++) {                              \
        for (int64_t r0 = r1; r0 < end; r0 += BLOCK) {                     \
            const int nb = end - r0 < BLOCK ? end - r0 : BLOCK;            \
            const XT *xb = x + r0 * n_features;                            \
            for (int i = 0; i < nb; i++) {                                 \
                node[i] = roots[t];                                        \
                slot[i] = i;                                               \
            }                                                              \
            int n_live = nb;                                               \
            for (int64_t d = 0; d < max_depth && n_live; d++) {            \
                int kept = 0;                                              \
                for (int j = 0; j < n_live; j++) {                         \
                    const int i = slot[j];                                 \
                    const XT *row = xb + i * n_features;                   \
                    STEP                                                   \
                    slot[kept] = i;                                        \
                    kept += live;                                          \
                }                                                          \
                n_live = kept;                                             \
            }                                                              \
            for (int i = 0; i < nb; i++)                                   \
                counts[r0 + i] += leaf_is_second[node[i]];                 \
        }                                                                  \
      }                                                                    \
    }                                                                      \
}

/* QuantizedForest records: (goto << 32) | (feature << 16) | code over
 * uint8 codes.  A leaf has code 255 and feature 0: no code exceeds it. */
#define STEP_U8                                                             \
    const int64_t rec = packed[node[i]];                                   \
    const uint8_t cut = (uint8_t)rec;                                      \
    const int live = cut != 255;                                           \
    node[i] = (rec >> 32) + (row[(rec >> 16) & 0xFFFF] > cut);

/* FlatForest rows fg = (feature, goto) with float64 thresholds.  A leaf
 * has feature -1: it reads row[0] instead, and never steps. */
#define STEP_FLOAT                                                          \
    const int64_t f = fg[2 * node[i]];                                     \
    const int live = f >= 0;                                               \
    node[i] = fg[2 * node[i] + 1]                                          \
            + (live & (row[live ? f : 0] > threshold[node[i]]));

ROUTE(static void, walk_u8, uint8_t, STEP_U8, const int64_t *packed)
ROUTE(void, count_second_f64, double, STEP_FLOAT,
      const int64_t *fg, const double *threshold)

/* Feature f's edges are edges[edge_offset[f] .. edge_offset[f + 1]).
 * A branch-free lower bound: the loop count depends only on the
 * feature's edge count, so its branch predicts. */
static void encode(const double *edges, const int64_t *edge_offset,
                   const double *x, int64_t n_rows, int64_t n_features,
                   uint8_t *codes)
{
    for (int64_t f = 0; f < n_features; f++) {
        const double *e = edges + edge_offset[f];
        const int64_t n_edges = edge_offset[f + 1] - edge_offset[f];
        for (int64_t r = 0; r < n_rows; r++) {
            const double v = x[r * n_features + f];
            const double *base = e;
            int64_t n = n_edges;
            while (n > 1) {
                const int64_t half = n >> 1;
                base = !(base[half] >= v) ? base + half : base;
                n -= half;
            }
            codes[r * n_features + f] =
                (uint8_t)((base - e) + (n_edges && !(*base >= v)));
        }
    }
}

void count_second_u8(const int64_t *packed, const double *edges,
                     const int64_t *edge_offset, const int64_t *roots,
                     int64_t n_trees, int64_t max_depth,
                     const int64_t *leaf_is_second, const double *x,
                     uint8_t *codes, int64_t n_rows, int64_t n_features,
                     int64_t *counts)
{
    encode(edges, edge_offset, x, n_rows, n_features, codes);
    walk_u8(packed, roots, n_trees, max_depth, leaf_is_second, codes,
            n_rows, n_features, counts);
}
