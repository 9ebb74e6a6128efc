/* Native Gotoh (affine-gap) alignment: fill + traceback in one call.
 *
 * Loaded through ctypes by repro.kernels.align. Each entry point is a
 * bit-for-bit port of one Python reference, because the two references
 * break score ties differently and both tie rules are part of the
 * output contract:
 *
 *   gotoh_value -- repro.kernels.align.gotoh_scalar: full H/E/V tables
 *                  and the value-comparing traceback.
 *   gotoh_rows  -- repro.mapping.alignment._align_core (unbanded):
 *                  lazy-E rows, packed H/E/V pointers, optional free
 *                  reference tail (end row = first argmax of the last
 *                  column).
 *
 * Every float64 expression keeps the reference's association order
 * ((h + go) + ge in value mode, h + (go + ge) in rows mode); the file
 * must be built with -ffp-contract=off and without -ffast-math so the
 * compiler neither fuses nor reorders them. A max of equal values is
 * the same value whichever side is kept, so ties inside the fill never
 * matter; only the traceback's tie rule shapes the CIGAR.
 *
 * Output: run-length CIGAR, runs packed as (length << 3) | op with op
 * 0 '=', 1 'X', 2 'I', 3 'D', adjacent equal runs merged. The buffer
 * must hold n + m runs. Return value: number of runs, or -1 when the
 * work tables cannot be allocated.
 */

#include <stdint.h>
#include <stdlib.h>

#define NEG (-1e18)

enum { OP_EQ = 0, OP_X = 1, OP_I = 2, OP_D = 3 };
enum { ST_H, ST_E, ST_V };

typedef struct {
    int64_t *runs;
    int64_t n;
} cigar_t;

/* The traceback walks end to start; runs are merged as they arrive and
 * reversed once at the end. */
static void push(cigar_t *c, int op)
{
    if (c->n && (c->runs[c->n - 1] & 7) == op)
        c->runs[c->n - 1] += 8;
    else
        c->runs[c->n++] = ((int64_t)1 << 3) | op;
}

static int64_t finish(cigar_t *c)
{
    for (int64_t lo = 0, hi = c->n - 1; lo < hi; lo++, hi--) {
        int64_t t = c->runs[lo];
        c->runs[lo] = c->runs[hi];
        c->runs[hi] = t;
    }
    return c->n;
}

static int diag_op(const uint8_t *a, const uint8_t *b, int64_t i, int64_t j)
{
    return a[i - 1] == b[j - 1] ? OP_EQ : OP_X;
}

int64_t gotoh_value(const uint8_t *a, int64_t n, const uint8_t *b, int64_t m,
                    double match, double mismatch, double go, double ge,
                    double *score, int64_t *runs)
{
    const int64_t w = m + 1;
    const int64_t cells = (n + 1) * w;
    double *h = malloc(3 * cells * sizeof(double));
    if (!h)
        return -1;
    double *e = h + cells;
    double *v = e + cells;

    h[0] = 0.0;
    e[0] = NEG;
    v[0] = NEG;
    for (int64_t j = 1; j <= m; j++) {
        e[j] = go + ge * (double)j;
        h[j] = e[j];
        v[j] = NEG;
    }
    for (int64_t i = 1; i <= n; i++) {
        v[i * w] = go + ge * (double)i;
        h[i * w] = v[i * w];
        e[i * w] = NEG;
    }
    for (int64_t i = 1; i <= n; i++) {
        double *hi = h + i * w, *ei = e + i * w, *vi = v + i * w;
        const double *hp = hi - w, *vp = vi - w;
        const uint8_t ai = a[i - 1];
        for (int64_t j = 1; j <= m; j++) {
            /* Python's max(x, y) keeps x unless y > x. */
            double x = ei[j - 1] + ge, y = hi[j - 1] + go + ge;
            ei[j] = y > x ? y : x;
            x = vp[j] + ge;
            y = hp[j] + go + ge;
            vi[j] = y > x ? y : x;
            double best = hp[j - 1] + (ai == b[j - 1] ? match : mismatch);
            if (ei[j] > best)
                best = ei[j];
            if (vi[j] > best)
                best = vi[j];
            hi[j] = best;
        }
    }
    *score = h[n * w + m];

    cigar_t c = {runs, 0};
    int64_t i = n, j = m;
    int state = ST_H;
    while (i > 0 || j > 0) {
        const int64_t k = i * w + j;
        if (state == ST_H) {
            if (j == 0) {
                state = ST_V;
            } else if (i == 0 || h[k] == e[k]) {
                state = ST_E;
            } else if (h[k] == v[k]) {
                state = ST_V;
            } else {
                push(&c, diag_op(a, b, i, j));
                i--;
                j--;
            }
        } else if (state == ST_E) {
            push(&c, OP_I);
            if (e[k] != e[k - 1] + ge)
                state = ST_H;
            j--;
        } else {
            push(&c, OP_D);
            if (v[k] != v[k - w] + ge)
                state = ST_H;
            i--;
        }
    }
    free(h);
    return finish(&c);
}

/* Packed traceback pointers, one byte per cell: bits 0-1 the H source
 * (0 diagonal, 1 from E, 2 from V), bit 2 E extends, bit 3 V extends. */
#define PTR_E 4
#define PTR_V 8

int64_t gotoh_rows(const uint8_t *a, int64_t n, const uint8_t *b, int64_t m,
                   double match, double mismatch, double go, double ge,
                   int free_ref_tail, double *score, int64_t *runs)
{
    cigar_t c = {runs, 0};
    if (n == 0 || m == 0) {
        if (n == 0 && m == 0) {
            *score = 0.0;
        } else if (n == 0) {
            *score = go + (double)m * ge;
            for (int64_t j = 0; j < m; j++)
                push(&c, OP_I);
        } else if (free_ref_tail) {
            *score = 0.0;
        } else {
            *score = go + (double)n * ge;
            for (int64_t i = 0; i < n; i++)
                push(&c, OP_D);
        }
        return finish(&c);
    }

    const int64_t w = m + 1;
    const double open_ext = go + ge;
    uint8_t *ptr = malloc((n + 1) * w);
    double *rows = malloc(4 * w * sizeof(double));
    if (!ptr || !rows) {
        free(ptr);
        free(rows);
        return -1;
    }
    double *hp = rows, *hc = rows + w, *vp = rows + 2 * w, *vc = rows + 3 * w;

    hp[0] = 0.0;
    vp[0] = NEG;
    ptr[0] = 0;
    for (int64_t j = 1; j <= m; j++) {
        hp[j] = go + ge * (double)j;
        vp[j] = NEG;
        ptr[j] = 1 | (j >= 2 ? PTR_E : 0);
    }
    int64_t end_row = 0;
    double end_score = hp[m];

    for (int64_t i = 1; i <= n; i++) {
        uint8_t *row = ptr + i * w;
        const uint8_t ai = a[i - 1];

        double vo = hp[0] + open_ext, ve = vp[0] + ge;
        int pv = ve > vo;
        vc[0] = pv ? ve : vo;
        double g = go + ge * (double)i;
        hc[0] = g;
        row[0] = 2 | (pv ? PTR_V : 0);
        /* run = running max of g[j] - j * ge; t = its term at j - 1. */
        double t = g + -(0.0 * ge);
        double run = t;

        for (int64_t j = 1; j <= m; j++) {
            vo = hp[j] + open_ext;
            ve = vp[j] + ge;
            pv = ve > vo;
            vc[j] = pv ? ve : vo;
            const double diag = hp[j - 1] + (b[j - 1] == ai ? match : mismatch);
            const int from_v = vc[j] > diag;
            g = from_v ? vc[j] : diag;

            const double js = (double)j * ge;
            const double e = run + js + go;
            const int pe = j >= 2 && run > t;
            const int from_e = e > g;
            hc[j] = from_e ? e : g;
            row[j] = (from_e ? 1 : from_v ? 2 : 0) | (pe ? PTR_E : 0) | (pv ? PTR_V : 0);

            t = g + -js;
            if (t > run)
                run = t;
        }
        if (hc[m] > end_score) {
            end_score = hc[m];
            end_row = i;
        }
        double *swap = hp;
        hp = hc;
        hc = swap;
        swap = vp;
        vp = vc;
        vc = swap;
    }

    if (!free_ref_tail) {
        end_row = n;
        end_score = hp[m];
    }
    *score = end_score;

    int64_t i = end_row, j = m;
    int state = ST_H;
    while (i > 0 || j > 0) {
        const uint8_t p = ptr[i * w + j];
        if (state == ST_H) {
            int choice = p & 3;
            if (j == 0)
                choice = 2;
            else if (i == 0)
                choice = 1;
            if (choice == 0) {
                push(&c, diag_op(a, b, i, j));
                i--;
                j--;
            } else {
                state = choice == 1 ? ST_E : ST_V;
            }
        } else if (state == ST_E) {
            push(&c, OP_I);
            if (!(p & PTR_E))
                state = ST_H;
            j--;
        } else {
            push(&c, OP_D);
            if (!(p & PTR_V))
                state = ST_H;
            i--;
        }
    }
    free(ptr);
    free(rows);
    return finish(&c);
}
