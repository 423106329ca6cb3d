/* Histogram tree growth over uint8 bin codes.
 *
 * The native twin of the numpy loop in training.py (_grow_numpy),
 * which stays the fallback and the reference.  One call grows a whole
 * tree depth-first and writes the flat TreeStructure arrays; the
 * caller copies them out with hist_grow_take.  The only step left to
 * the caller is the per-node feature draw: when a node that passed the
 * leaf tests needs k < d candidate features, the kernel returns DRAW,
 * the caller writes np.sort(rng.choice(d, k, replace=False)) into its
 * draw buffer and calls hist_grow_resume, so the tree's Generator
 * advances exactly as under numpy.
 *
 * Node rows are a [start, end) segment of one row array, split by a
 * stable partition, so children keep their parent's row order.  Nodes
 * with more than B rows (B = the most bins of any column) scan
 * per-bin class histograms; with all d features the histograms ride
 * the stack and a split fills only the smaller child's, the other is
 * parent - sibling, clamped at 0.  Smaller nodes sort each column's
 * codes by a stable counting sort and scan the row prefix sums.  Every
 * value is bitwise the numpy grower's:
 *  - sums over the K classes fold from 0.0 in class order, as numpy's
 *    reductions do below their 8-term pairwise block (K <= 7);
 *  - histograms and prefix sums add one row's weight at a time, in
 *    node row order, as bincount and cumsum do;
 *  - a cut's cost is ((wl - Sl/wl) + wr) - Sr/wr with Sl, Sr the sums
 *    of squared class weights, its gain impurity - cost / w_node; the
 *    build passes -ffp-contract=off so no multiply-add is fused;
 *  - the first maximal gain wins, feature-major in the histogram scan
 *    and cut-major in the sorted scan, and a NaN gain (numpy's argmax
 *    returns the first NaN) makes the node a leaf;
 *  - the two children of a split are allocated back to back.
 *
 * The workspace (rows, stack, histogram pool, node arrays) belongs to
 * a Grower from hist_grow_new and only grows, so every tree of an
 * ensemble reuses it.  hist_grow_start and hist_grow_resume return the
 * node count when the tree is done, DRAW, or NO_MEMORY.  No Python is
 * called, so ctypes runs these without the GIL.
 *
 * Build: cc -O2 -ffp-contract=off -fno-math-errno -shared -fPIC
 * (_native.py does this).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DRAW (-1)
#define NO_MEMORY (-2)
#define MAX_CLASSES 7
#define MAX_BINS 256

typedef struct {
    int64_t start, end, depth, node, hist; /* hist: pool slot or -1 */
} Entry;

typedef struct {
    int64_t pos, bin, index; /* column position, cut bin, sorted cut row */
    double gain, left[MAX_CLASSES];
} Cut;

typedef struct {
    /* the tree being grown (borrowed from the caller) */
    const uint8_t *codes;
    const int64_t *y, *cut_limit, *edge_offset;
    const double *w, *edges;
    const int64_t *draw;
    int64_t d, K, B, k, max_depth, min_split, min_leaf;
    double min_decrease, total_weight;
    /* workspace */
    int64_t *rows, *spill, rows_cap, spill_cap;
    Entry *stack, cur;
    int64_t sp, stack_cap, pending;
    double *pool;
    int64_t pool_cap, slot_size, n_slots;
    int64_t *free_slots, n_free, free_cap;
    /* the tree */
    int64_t *feature, *left, *right, *n_samples;
    double *threshold, *value, *impurity;
    int64_t n_nodes, node_cap, value_cap;
} Grower;

static int reserve(void *array, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    int64_t n = *cap > 64 ? *cap : 64;
    while (n < need)
        n *= 2;
    void *grown = realloc(*(void **)array, (size_t)n * size);
    if (grown == NULL)
        return -1;
    *(void **)array = grown;
    *cap = n;
    return 0;
}

/* Room for need nodes; the value rows hold K classes each. */
static int reserve_nodes(Grower *g, int64_t need)
{
    if (need > g->node_cap) {
        int64_t cap;
#define GROW(FIELD)                                                         \
        cap = g->node_cap;                                                 \
        if (reserve(&g->FIELD, &cap, need, 8))                             \
            return -1;
        GROW(feature) GROW(left) GROW(right) GROW(n_samples)
        GROW(threshold) GROW(impurity)
#undef GROW
        g->node_cap = cap;
    }
    return reserve(&g->value, &g->value_cap, g->node_cap * g->K, sizeof(double));
}

static double class_sum(const double *c, int64_t K)
{
    double s = 0.0;
    for (int64_t k = 0; k < K; k++)
        s += c[k];
    return s;
}

/* _impurity(counts, "gini") in tree.py. */
static double gini(const double *c, int64_t K)
{
    const double total = class_sum(c, K);
    double s = 0.0;
    for (int64_t k = 0; k < K; k++) {
        const double p = total > 0 ? c[k] / total : 0.0;
        s += p * p;
    }
    return 1.0 - s;
}

/* Appends a leaf; the caller has reserved room for it. */
static int64_t add_node(Grower *g, const double *counts, int64_t n)
{
    const int64_t id = g->n_nodes++;
    g->feature[id] = -1;
    g->threshold[id] = 0.0;
    g->left[id] = g->right[id] = -1;
    g->n_samples[id] = n;
    memcpy(g->value + id * g->K, counts, (size_t)g->K * sizeof(double));
    g->impurity[id] = gini(counts, g->K);
    return id;
}

/* node_impurity - cost / w_node for one cut, as _children_cost does it. */
static double cut_gain(const double *left, const double *counts, int64_t K,
                       double impurity, double w_node)
{
    double wl = 0.0, wr = 0.0, sl = 0.0, sr = 0.0;
    for (int64_t k = 0; k < K; k++) {
        const double l = left[k], r = counts[k] - left[k];
        wl += l;
        wr += r;
        sl += l * l;
        sr += r * r;
    }
    const double cost = wl - sl / wl + wr - sr / wr;
    return impurity - cost / w_node;
}

static int64_t alloc_slot(Grower *g)
{
    if (g->n_free)
        return g->free_slots[--g->n_free];
    int64_t need = (g->n_slots + 1) * g->slot_size;
    if (reserve(&g->pool, &g->pool_cap, need, sizeof(double))
        || reserve(&g->free_slots, &g->free_cap, g->n_slots + 1, sizeof(int64_t)))
        return -1;
    return g->n_slots++;
}

static void release_slot(Grower *g, int64_t slot)
{
    if (slot >= 0)
        g->free_slots[g->n_free++] = slot;
}

/* Weighted class counts (F, B, K) then raw counts (F, B) of rows
 * [start, end) over columns cols (all d when NULL), row by row. */
static void fill_hist(Grower *g, int64_t slot, int64_t start, int64_t end,
                      const int64_t *cols, int64_t F)
{
    const int64_t B = g->B, K = g->K, d = g->d;
    double *cls = g->pool + slot * g->slot_size, *cnt = cls + F * B * K;
    memset(cls, 0, (size_t)(F * B * (K + 1)) * sizeof(double));
    for (int64_t i = start; i < end; i++) {
        const int64_t r = g->rows[i], c = g->y[r];
        const double w = g->w ? g->w[r] : 1.0;
        const uint8_t *row = g->codes + r * d;
        for (int64_t j = 0; j < F; j++) {
            const int64_t cell = j * B + row[cols ? cols[j] : j];
            cls[cell * K + c] += w;
            cnt[cell] += 1.0;
        }
    }
}

/* _scan_best_cut: 1 with *best set, 0 for no admissible positive gain. */
static int scan_hist(const Grower *g, int64_t slot, const int64_t *cols,
                     int64_t F, const double *counts, int64_t n_node,
                     double impurity, double w_node, Cut *best)
{
    const int64_t B = g->B, K = g->K;
    const double *cls = g->pool + slot * g->slot_size, *cnt = cls + F * B * K;
    best->gain = -INFINITY;
    for (int64_t j = 0; j < F; j++) {
        const int64_t limit = g->cut_limit[cols ? cols[j] : j];
        double left[MAX_CLASSES] = {0}, n_left = 0.0;
        for (int64_t b = 0; b < limit; b++) {
            const double *h = cls + (j * B + b) * K;
            for (int64_t k = 0; k < K; k++)
                left[k] += h[k];
            n_left += cnt[j * B + b];
            if (n_left < g->min_leaf || n_node - n_left < g->min_leaf)
                continue;
            const double gain = cut_gain(left, counts, K, impurity, w_node);
            if (isnan(gain))
                return 0;
            if (gain > best->gain) {
                best->gain = gain;
                best->pos = j;
                best->bin = b;
                memcpy(best->left, left, sizeof(left));
            }
        }
    }
    return isfinite(best->gain) && best->gain > 1e-12;
}

/* _sorted_best_cut for a node of at most B rows. */
static int scan_sorted(const Grower *g, const Entry *e, const int64_t *cols,
                       int64_t F, const double *counts, double impurity,
                       double w_node, Cut *best)
{
    const int64_t K = g->K, d = g->d, m = e->end - e->start;
    const int64_t *rows = g->rows + e->start;
    int64_t order[MAX_BINS], bucket[MAX_BINS + 1];
    uint8_t sorted[MAX_BINS];
    int found = 0;
    for (int64_t j = 0; j < F; j++) {
        const int64_t f = cols ? cols[j] : j;
        memset(bucket, 0, sizeof(bucket));
        for (int64_t i = 0; i < m; i++)
            bucket[g->codes[rows[i] * d + f] + 1]++;
        for (int64_t b = 1; b <= MAX_BINS; b++)
            bucket[b] += bucket[b - 1];
        for (int64_t i = 0; i < m; i++) {
            const uint8_t code = g->codes[rows[i] * d + f];
            const int64_t at = bucket[code]++;
            order[at] = rows[i];
            sorted[at] = code;
        }
        Cut here = {.gain = -INFINITY};
        double left[MAX_CLASSES] = {0};
        for (int64_t i = 0; i < m - g->min_leaf; i++) {
            const int64_t r = order[i];
            left[g->y[r]] += g->w ? g->w[r] : 1.0;
            if (i < g->min_leaf - 1 || sorted[i + 1] <= sorted[i])
                continue;
            const double gain = cut_gain(left, counts, K, impurity, w_node);
            if (isnan(gain))
                return 0;
            if (gain > here.gain) {
                here.gain = gain;
                here.index = i;
                here.bin = sorted[i];
                memcpy(here.left, left, sizeof(left));
            }
        }
        if (here.gain == -INFINITY)
            continue;
        if (!found || here.gain > best->gain
            || (here.gain == best->gain && here.index < best->index)) {
            *best = here;
            best->pos = j;
            found = 1;
        }
    }
    return found && isfinite(best->gain) && best->gain > 1e-12;
}

static int may_split(const Grower *g, int64_t n, int64_t depth)
{
    return depth < g->max_depth && n >= g->min_split && n >= 2 * g->min_leaf;
}

static int push(Grower *g, Entry e)
{
    if (reserve(&g->stack, &g->stack_cap, g->sp + 1, sizeof(Entry)))
        return -1;
    g->stack[g->sp++] = e;
    return 0;
}

/* Splits g->cur, or leaves it a leaf; -1 when out of memory. */
static int split(Grower *g)
{
    const Entry e = g->cur;
    const int64_t K = g->K, B = g->B, n = e.end - e.start;
    const int64_t *cols = g->k < g->d ? g->draw : NULL;
    const int64_t F = cols ? g->k : g->d;
    double counts[MAX_CLASSES];
    memcpy(counts, g->value + e.node * K, (size_t)K * sizeof(double));
    const double impurity = g->impurity[e.node], w_node = class_sum(counts, K);
    Cut best;
    int64_t slot = e.hist;
    int found;
    if (n <= B) {
        found = scan_sorted(g, &e, cols, F, counts, impurity, w_node, &best);
    } else {
        if (slot < 0) {
            if ((slot = alloc_slot(g)) < 0)
                return -1;
            fill_hist(g, slot, e.start, e.end, cols, F);
        }
        found = scan_hist(g, slot, cols, F, counts, n, impurity, w_node, &best);
        if (cols) {
            release_slot(g, slot);
            slot = -1;
        }
    }
    if (!found || best.gain * w_node / g->total_weight < g->min_decrease) {
        release_slot(g, slot);
        return 0;
    }

    /* Stable partition: left rows compact in place, right rows spill. */
    const int64_t f = cols ? cols[best.pos] : best.pos;
    int64_t n_left = 0, n_right = 0;
    for (int64_t i = e.start; i < e.end; i++) {
        const int64_t r = g->rows[i];
        if (g->codes[r * g->d + f] <= best.bin)
            g->rows[e.start + n_left++] = r;
        else
            g->spill[n_right++] = r;
    }
    memcpy(g->rows + e.start + n_left, g->spill, (size_t)n_right * sizeof(int64_t));
    if (n_left < g->min_leaf || n_right < g->min_leaf) {
        release_slot(g, slot);
        return 0;
    }

    double right_counts[MAX_CLASSES];
    for (int64_t k = 0; k < K; k++) {
        const double r = counts[k] - best.left[k];
        right_counts[k] = r < 0 ? 0.0 : r;
    }
    if (reserve_nodes(g, g->n_nodes + 2))
        return -1;
    const int64_t left_id = add_node(g, best.left, n_left);
    const int64_t right_id = add_node(g, right_counts, n_right);
    g->feature[e.node] = f;
    g->threshold[e.node] = g->edges[g->edge_offset[f] + best.bin];
    g->left[e.node] = left_id;
    g->right[e.node] = right_id;

    /* With all d features a child that will scan bins gets its
     * histogram: the smaller child's from its rows, the other's by
     * subtraction in the parent's slot. */
    int64_t left_hist = -1, right_hist = -1;
    if (!cols) {
        const int left_needed = n_left > B && may_split(g, n_left, e.depth + 1);
        const int right_needed = n_right > B && may_split(g, n_right, e.depth + 1);
        if (left_needed || right_needed) {
            const int small_is_left = n_left <= n_right;
            const int64_t small = alloc_slot(g);
            if (small < 0)
                return -1;
            if (small_is_left)
                fill_hist(g, small, e.start, e.start + n_left, NULL, F);
            else
                fill_hist(g, small, e.start + n_left, e.end, NULL, F);
            int64_t big = -1;
            if (small_is_left ? right_needed : left_needed) {
                double *parent = g->pool + slot * g->slot_size;
                const double *sibling = g->pool + small * g->slot_size;
                for (int64_t i = 0; i < g->slot_size; i++) {
                    const double v = parent[i] - sibling[i];
                    parent[i] = v < 0 ? 0.0 : v;
                }
                big = slot;
                slot = -1;
            }
            left_hist = small_is_left ? small : big;
            right_hist = small_is_left ? big : small;
            if (!(small_is_left ? left_needed : right_needed)) {
                release_slot(g, small);
                *(small_is_left ? &left_hist : &right_hist) = -1;
            }
        }
        release_slot(g, slot);
    }
    const Entry right = {e.start + n_left, e.end, e.depth + 1, right_id, right_hist};
    const Entry left = {e.start, e.start + n_left, e.depth + 1, left_id, left_hist};
    return push(g, right) || push(g, left) ? -1 : 0;
}

void *hist_grow_new(void)
{
    return calloc(1, sizeof(Grower));
}

void hist_grow_free(void *handle)
{
    Grower *g = handle;
    if (g == NULL)
        return;
    free(g->rows);
    free(g->spill);
    free(g->stack);
    free(g->pool);
    free(g->free_slots);
    free(g->feature);
    free(g->left);
    free(g->right);
    free(g->n_samples);
    free(g->threshold);
    free(g->value);
    free(g->impurity);
    free(g);
}

int64_t hist_grow_resume(void *handle)
{
    Grower *g = handle;
    for (;;) {
        if (!g->pending) {
            if (g->sp == 0)
                return g->n_nodes;
            const Entry e = g->stack[--g->sp];
            const int64_t n = e.end - e.start;
            if (e.depth >= g->max_depth || n < g->min_split
                || n < 2 * g->min_leaf || g->impurity[e.node] <= 1e-12) {
                release_slot(g, e.hist);
                continue;
            }
            g->cur = e;
            if (g->k < g->d) {
                g->pending = 1;
                return DRAW;
            }
        }
        g->pending = 0;
        if (split(g))
            return NO_MEMORY;
    }
}

/* Grows a tree from rows[0..n_rows) of codes (row-major, d columns).
 * y: class ids in [0, K), K <= MAX_CLASSES; w: weights, or NULL for 1;
 * cut_limit[f]: bins of column f minus one; edges[edge_offset[f] + b]:
 * the threshold of cut b of column f; B <= MAX_BINS; k: candidate
 * features per node, with draw the caller's k-entry buffer when k < d. */
int64_t hist_grow_start(void *handle, const uint8_t *codes, int64_t d,
                        const int64_t *y, const double *w, const int64_t *rows,
                        int64_t n_rows, int64_t K, const int64_t *cut_limit,
                        const double *edges, const int64_t *edge_offset,
                        int64_t B, int64_t max_depth, int64_t min_split,
                        int64_t min_leaf, double min_decrease, int64_t k,
                        const int64_t *draw)
{
    Grower *g = handle;
    g->codes = codes;
    g->d = d;
    g->y = y;
    g->w = w;
    g->K = K;
    g->cut_limit = cut_limit;
    g->edges = edges;
    g->edge_offset = edge_offset;
    g->B = B;
    g->max_depth = max_depth;
    g->min_split = min_split;
    g->min_leaf = min_leaf;
    g->min_decrease = min_decrease;
    g->k = k;
    g->draw = draw;
    g->slot_size = (k < d ? k : d) * B * (K + 1);
    g->n_nodes = g->sp = g->pending = g->n_slots = g->n_free = 0;
    if (reserve(&g->rows, &g->rows_cap, n_rows, sizeof(int64_t))
        || reserve(&g->spill, &g->spill_cap, n_rows, sizeof(int64_t))
        || reserve_nodes(g, 1))
        return NO_MEMORY;
    memcpy(g->rows, rows, (size_t)n_rows * sizeof(int64_t));

    double counts[MAX_CLASSES] = {0};
    for (int64_t i = 0; i < n_rows; i++)
        counts[y[rows[i]]] += w ? w[rows[i]] : 1.0;
    g->total_weight = class_sum(counts, K);
    add_node(g, counts, n_rows);
    const Entry root = {0, n_rows, 0, 0, -1};
    if (push(g, root))
        return NO_MEMORY;
    return hist_grow_resume(g);
}

/* Copies the grown tree into the caller's arrays of node_count rows. */
void hist_grow_take(void *handle, int64_t *feature, double *threshold,
                    int64_t *left, int64_t *right, double *value,
                    double *impurity, int64_t *n_samples)
{
    const Grower *g = handle;
    const size_t n = (size_t)g->n_nodes;
    memcpy(feature, g->feature, n * sizeof(int64_t));
    memcpy(threshold, g->threshold, n * sizeof(double));
    memcpy(left, g->left, n * sizeof(int64_t));
    memcpy(right, g->right, n * sizeof(int64_t));
    memcpy(value, g->value, n * (size_t)g->K * sizeof(double));
    memcpy(impurity, g->impurity, n * sizeof(double));
    memcpy(n_samples, g->n_samples, n * sizeof(int64_t));
}
