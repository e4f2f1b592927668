/*
 * advance_run: one run of the fleet kernel's T x I solve grid, per column,
 * and its commit.
 *
 * The native body of repro.core.fleet.FleetKernel._advance_run.  For every
 * column, round r = 0 .. T-1 and IRLS iteration i = 0 .. I-1 it performs
 * exactly the IEEE-754 double operations, in exactly the order, that the
 * NumPy wavefront (FleetKernel._run_wavefront + BatchedIncrementalLDLT.
 * extend_solve) performs for solve (i, r): stage the 6 x 7 augmented block,
 * fold the 13 pattern cells in caller order (mirrored), eliminate, store the
 * trailing block, tail-sweep, back-substitute two rows, reweight.  Solve
 * (i, r) reads only (i - 1, r) and (i, r - 1), so the order the grid is
 * walked in cannot change a bit; here a chunk of columns walks it round by
 * round with its I x 22 doubles of state in cache for the whole run.
 *
 * The handle.  A call takes two pointers.  `struct advance_side` is one
 * orientation of a kernel's state: the addresses of its arrays, their
 * capacities and strides, and the configuration (period, lambdas, epsilon,
 * the monitor's minimum std and threshold, whether tripped columns are
 * searched).  A kernel keeps two, one per side of its solver's and trend
 * pairs' ping-pong, and rebuilds them only when growing its columns
 * replaces an array.  `struct advance_run_args` is the run: rounds, width,
 * the run's columns and the planes with their strides.  The prototypes and
 * both layouts are the ctypes declarations in repro.core._native (rule
 * HP007 holds each field's order and kind to the declaration below).
 *
 * The commit.  A clean run -- no round went non-finite, and no score passed
 * the threshold while tripped columns are searched -- is committed here
 * before the call returns: each member's seasonal values scattered into
 * its buffer, global_index, points_processed and last_detection_residual
 * advanced, and for a subset its columns of the blocks, right-hand sides
 * and trend pairs copied from the working side.  A full-width run copies
 * nothing: it reports that the caller must flip the ping-pong, a swap of
 * references.  A run that is not clean commits nothing; once the caller
 * has replayed or searched what tripped, advance_commit ends it in the
 * same commit.
 *
 * Two widths.  The iteration is written once below, over a GCC vector of
 * CHUNK_LANES doubles, and the file includes itself twice to instantiate
 * it: 16 lanes for chunks of columns, 1 lane for narrow runs -- a
 * one-column `process`, and a chunk's ragged tail of fewer than
 * NARROW_BELOW columns.  Each cell of the augmented block is a local, the
 * fold and the five sweeps unrolled in the per-cell operation order of the
 * reference, every cell computed (a structural zero included, so signed
 * zeros and NaN propagate as they do there).  As locals the
 * cells are the compiler's to keep in registers, where a staged block in
 * memory would send every sweep step through a load and a store.  On
 * x86-64 glibc `advance_run` is built as target clones (AVX-512F, AVX2,
 * baseline), the chunk bodies inlined into each, and the dynamic loader's
 * ifunc resolver picks one from cpuid when the library is opened, so one
 * cached library serves every x86-64 CPU; elsewhere it is one baseline
 * build.  Every operation is correctly rounded per lane (add, sub, mul,
 * div, compare/select, fabs as a sign mask), so neither the lane count nor
 * the clone can change a bit.
 *
 * After a round's last iteration each lane also runs the residual monitor
 * as the NumPy body does, round by round: the residual (value - trend) -
 * seasonal, its z-score against the monitor (fleet._welford_score) and its
 * Welford fold into the monitor (fleet._welford_fold), with the chunk's
 * moments in lanes for the whole run.  Every round is folded, a non-finite
 * one and those after it included; the pre-run moments of every run
 * position are saved first, and the caller puts them back whenever the run
 * is not committed in the end.
 *
 * Bit-equality rules (checked by `python -m repro.analysis`, rule HP006):
 * doubles only; every multiply-then-subtract is two roundings (the loader
 * compiles with -ffp-contract=off); no reductions -- lanes never meet but in
 * the screen's sums, which decide the status and no value -- and lanes are
 * the vector elements (or the innermost loop), so the compiler vectorises
 * across columns only; nothing from <math.h> but fabs and sqrt (correctly
 * rounded by IEEE 754, like + - * /); np.maximum's NaN-propagating
 * semantics are spelled out; no guards -- a zero pivot propagates
 * non-finite values that the screen catches, as it does for the NumPy body.
 *
 * Layouts are the Python side's.  A run advances `width` members of a
 * cohort, each a kernel column: run position j is column `columns[j]` (any
 * order, no repeats; all `members` columns for a full-width run).
 * Everything the kernel keeps per column is read, and written, at the
 * column:
 *   - blocks (4, 4, I, capacity), right-hand sides (4, I, capacity), trend
 *     pairs (2, I, pair_capacity); the `_in` side is the committed one
 *     (written only by a subset's commit), `_out` the working one;
 *   - the seasonal buffer, rows of `period` doubles `seasonal_stride`
 *     apart, with `global_index` (the anchor of round r is the slot
 *     (global_index + r) mod period, and the monitor's count before round
 *     r is global_index + r), `points_processed` and
 *     `last_detection_residual`;
 *   - the monitor's mean / m2, one entry per column, updated in place.
 * Values and outputs are indexed by run position: `planes` holds six
 * planes `plane_stride` apart -- values (read), then trend, seasonal,
 * residual, detection residual and score (written) -- each with rows of
 * run positions `row_stride` apart.  The pre-run moments of run position j
 * land in saved_moments[j] (mean) and saved_moments[width + j] (m2).
 *
 * advance_run returns ADVANCE_COMMITTED, or ADVANCE_FLIP for a committed
 * full-width run, else 2 * bad + tripped: `bad` the first round whose
 * screen -- the sum of its trend values plus the sum of its seasonal
 * values, each summed in run order, the one place lanes meet -- is not
 * finite (the run's length if none), `tripped` 1 if some member's score
 * passed `threshold` in any round.  `scratch` holds
 * advance_run_scratch(I, rounds) doubles.
 */

#ifndef CHUNK_LANES /* ------------------------- the routines, first pass */

#include <math.h>
#include <stdint.h>

/* __GLIBC__ (for ifunc) is known once a libc header is in. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VECTOR_CLONES 1
#endif
#endif
#ifdef VECTOR_CLONES
#define CLONED __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define CLONED
#endif
#define INLINE static inline __attribute__((always_inline))

#define LANES 16      /* columns of a chunk */
/* A chunk with fewer live columns than this runs them one by one through
 * the 1-lane body.  Measured on a 2-vCPU AVX-512 Xeon, I = 8, 8 rounds,
 * the AVX-512F clone: a 16-lane chunk costs ~29 us whatever its live
 * count, a one-lane column ~6.1 us, so a tail of 1 to 4 is cheaper
 * narrow (4 columns: 29.8 against 31.4 us a run; 5: 35.7 against 32.9). */
#define NARROW_BELOW 5
#define W 4           /* half bandwidth */
#define STATE 22      /* per (iteration, lane): 16 block + 4 rhs + 2 trends */

#define ADVANCE_COMMITTED (-1)
#define ADVANCE_FLIP (-2)

typedef double vec16 __attribute__((vector_size(16 * sizeof(double))));
typedef int64_t mask16 __attribute__((vector_size(16 * sizeof(int64_t))));
typedef double vec1 __attribute__((vector_size(sizeof(double))));
typedef int64_t mask1 __attribute__((vector_size(sizeof(int64_t))));

/* One orientation of a kernel's state (see the header). */
struct advance_side {
    double *blocks_in;
    double *rhs_in;
    double *blocks_out;
    double *rhs_out;
    int64_t capacity;
    double *pairs_in;
    double *pairs_out;
    int64_t pair_capacity;
    double *seasonal_buffer;
    int64_t seasonal_stride;
    int64_t period;
    int64_t *global_index;
    int64_t *points_processed;
    double *last_detection_residual;
    double *monitor_mean;
    double *monitor_m2;
    double *saved_moments;
    double *scratch;
    int64_t iterations;
    int64_t members;
    int64_t searching;
    double lambda1;
    double lambda2;
    double epsilon;
    double minimum_std;
    double threshold;
};

/* One run (see the header). */
struct advance_run_args {
    int64_t rounds;
    int64_t width;
    const int64_t *columns;
    double *planes;
    int64_t plane_stride;
    int64_t row_stride;
};

/* Doubles of scratch a run of up to `rounds` rounds of `iterations` IRLS
 * iterations needs: the lanes' state, then the screen's per-round sums. */
int64_t advance_run_scratch(int64_t iterations, int64_t rounds)
{
    return iterations * STATE * LANES + 2 * rounds;
}

/* The clone the ifunc resolver picks in this process: the clone list
 * above, first supported wins. */
const char *advance_run_vector(void)
{
#ifdef VECTOR_CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "default";
}

/* Row k of iteration i of a column's 22 doubles of state on the committed
 * (`working` 0) or the working side: block cell k (k < 16), right-hand side
 * k - 16 (k < 20) or trend slot k - 20, `capacity` doubles a row apart. */
static inline double *state_row(
    const struct advance_side *side, int working, int64_t i, int k)
{
    const int64_t I = side->iterations;
    if (k < W * W)
        return (working ? side->blocks_out : side->blocks_in)
            + (k * I + i) * side->capacity;
    if (k < W * W + W)
        return (working ? side->rhs_out : side->rhs_in)
            + ((k - W * W) * I + i) * side->capacity;
    return (working ? side->pairs_out : side->pairs_in)
        + ((k - W * W - W) * I + i) * side->pair_capacity;
}

/* The anchor phase of round r, as Python's % (never negative). */
static inline int64_t phase_of(int64_t index, int64_t r, int64_t period)
{
    int64_t phase = (index + r) % period;
    return phase < 0 ? phase + period : phase;
}

#define CHUNK_LANES 16
#define VEC vec16
#define MASK mask16
#define CHUNK chunk16
#include __FILE__
#undef CHUNK_LANES
#undef VEC
#undef MASK
#undef CHUNK

#define CHUNK_LANES 1
#define VEC vec1
#define MASK mask1
#define CHUNK chunk1
#include __FILE__
#undef CHUNK_LANES
#undef VEC
#undef MASK
#undef CHUNK

/* Make a finished run the committed state; a full-width run returns
 * ADVANCE_FLIP for the caller to swap its sides, a subset ADVANCE_COMMITTED
 * once its columns are copied from the working side.  Within a run every
 * member writes `rounds` distinct seasonal slots (runs never exceed
 * `period` rounds). */
static int64_t commit(
    const struct advance_side *side, const struct advance_run_args *run)
{
    const int64_t rounds = run->rounds, n = run->width;
    const int64_t I = side->iterations, row_stride = run->row_stride;
    const double *seasonal_out = run->planes + 2 * run->plane_stride;
    const double *detection_out = run->planes + 4 * run->plane_stride;
    for (int64_t j = 0; j < n; j++) {
        const int64_t column = run->columns[j];
        const int64_t index = side->global_index[column];
        double *slots = side->seasonal_buffer + column * side->seasonal_stride;
        for (int64_t r = 0; r < rounds; r++)
            slots[phase_of(index, r, side->period)] = seasonal_out[r * row_stride + j];
        side->global_index[column] = index + rounds;
        side->points_processed[column] = side->points_processed[column] + rounds;
        side->last_detection_residual[column] =
            detection_out[(rounds - 1) * row_stride + j];
    }
    if (n == side->members)
        return ADVANCE_FLIP;
    /* Row by row, so the run's columns of a row are copied together. */
    for (int64_t i = 0; i < I; i++)
        for (int k = 0; k < STATE; k++) {
            double *to = state_row(side, 0, i, k);
            const double *from = state_row(side, 1, i, k);
            for (int64_t j = 0; j < n; j++)
                to[run->columns[j]] = from[run->columns[j]];
        }
    return ADVANCE_COMMITTED;
}

CLONED int64_t advance_run(
    const struct advance_side *side, const struct advance_run_args *run)
{
    const int64_t rounds = run->rounds, n = run->width;
    double *trend_sum = side->scratch + side->iterations * STATE * LANES;
    double *seasonal_sum = trend_sum + rounds;
    for (int64_t r = 0; r < rounds; r++) {
        trend_sum[r] = 0.0;
        seasonal_sum[r] = 0.0;
    }
    int64_t tripped = 0;
    for (int64_t base = 0; base < n; base += LANES) {
        const int64_t live = n - base < LANES ? n - base : LANES;
        if (live >= NARROW_BELOW) {
            tripped |= chunk16(side, run, base, live, trend_sum, seasonal_sum);
            continue;
        }
        for (int64_t position = base; position < base + live; position++)
            tripped |= chunk1(side, run, position, 1, trend_sum, seasonal_sum);
    }
    int64_t bad = 0;
    while (bad < rounds) {
        /* x - x is NaN exactly when x is not finite. */
        double screen = trend_sum[bad] + seasonal_sum[bad];
        screen = screen - screen;
        if (screen != screen)
            break;
        bad++;
    }
    if (bad == rounds && !(tripped && side->searching))
        return commit(side, run);
    return 2 * bad + tripped;
}

/* The commit of a run advance_run left uncommitted, once the caller has
 * replayed or searched what tripped (the planes then hold the run's final
 * outputs): ADVANCE_FLIP or ADVANCE_COMMITTED, as advance_run returns. */
int64_t advance_commit(
    const struct advance_side *side, const struct advance_run_args *run)
{
    return commit(side, run);
}

#else /* ------------------------ one chunk, CHUNK_LANES wide: second pass */

/* Lanes [0, live) of a chunk are run positions base + l; spare lanes redo
 * position `base`, and nothing of theirs is stored.  Returns 1 if a live
 * lane's score passed the threshold. */
INLINE int64_t CHUNK(
    const struct advance_side *side, const struct advance_run_args *run,
    int64_t base, int64_t live, double *trend_sum, double *seasonal_sum)
{
    enum { L = CHUNK_LANES };
    /* Unaligned vectors: the scratch is a plain double buffer. */
    typedef double unaligned __attribute__((vector_size(L * sizeof(double)), aligned(8)));
    const int64_t I = side->iterations, rounds = run->rounds, n = run->width;
    const int64_t plane_stride = run->plane_stride, row_stride = run->row_stride;
    const double *values = run->planes;
    double *trend_out = run->planes + plane_stride;
    double *seasonal_out = trend_out + plane_stride;
    double *residual_out = seasonal_out + plane_stride;
    double *detection_out = residual_out + plane_stride;
    double *score_out = detection_out + plane_stride;
    const double lambda1 = side->lambda1, lambda2 = side->lambda2;
    const double minimum_std = side->minimum_std, threshold = side->threshold;
    const VEC zero = {0.0}, one = zero + 1.0, epsilon = zero + side->epsilon;
    const MASK magnitude = (MASK){0} + INT64_MAX; /* every bit but the sign */
    unaligned *scratch = (unaligned *)side->scratch;

    int64_t position[L], column[L];
    for (int l = 0; l < L; l++) {
        position[l] = base + (l < live ? l : 0);
        column[l] = run->columns[position[l]];
    }
    int64_t count[L];
    double mean[L], m2[L];
    for (int l = 0; l < L; l++) {
        count[l] = side->global_index[column[l]];
        mean[l] = side->monitor_mean[column[l]];
        m2[l] = side->monitor_m2[column[l]];
    }
    for (int l = 0; l < live; l++) {
        side->saved_moments[base + l] = mean[l];
        side->saved_moments[n + base + l] = m2[l];
    }

    /* Pre-run state of the chunk: committed side -> scratch, 22 vectors
     * per iteration (16 block cells, 4 right-hand sides, 2 trends). */
    for (int64_t i = 0; i < I; i++)
        for (int k = 0; k < STATE; k++) {
            const double *row = state_row(side, 0, i, k);
            VEC state;
            for (int l = 0; l < L; l++)
                state[l] = row[column[l]];
            scratch[i * STATE + k] = state;
        }

    int64_t tripped = 0;
    for (int64_t r = 0; r < rounds; r++) {
        VEC value, anchored;
        MASK no_first, no_second;
        for (int l = 0; l < L; l++) {
            value[l] = values[r * row_stride + position[l]];
            anchored[l] = value[l] + side->seasonal_buffer[
                column[l] * side->seasonal_stride
                + phase_of(side->global_index[column[l]], r, side->period)];
            /* A column's first online point has no trend-difference term
             * and its second no second difference. */
            int64_t age = side->points_processed[column[l]] + r;
            no_first[l] = age < 1 ? -1 : 0;
            no_second[l] = age < 2 ? -1 : 0;
        }
        VEC weight_p = one, weight_q = one, trend = zero, seasonal = zero;
        for (int64_t i = 0; i < I; i++) {
            unaligned *state = scratch + i * STATE;
            /* The six distinct values of the pattern (a gated term is
             * exactly +0.0, as np.copyto writes it). */
            VEC first = weight_p * lambda1, second = weight_q * lambda2;
            first = (VEC)((MASK)first & ~no_first);
            second = (VEC)((MASK)second & ~no_second);
            const VEC minus_first = -first;
            const VEC four_second = second * 4.0;
            const VEC minus_two_second = second * -2.0;

            /* Stage: trailing block and its right-hand side top left,
             * zeros in the appended rows and columns, the point's two
             * right-hand sides below. */
            VEC a00 = state[0], a01 = state[1], a02 = state[2], a03 = state[3];
            VEC a10 = state[4], a11 = state[5], a12 = state[6], a13 = state[7];
            VEC a20 = state[8], a21 = state[9], a22 = state[10], a23 = state[11];
            VEC a30 = state[12], a31 = state[13], a32 = state[14], a33 = state[15];
            VEC a04 = zero, a05 = zero, a06 = state[16];
            VEC a14 = zero, a15 = zero, a16 = state[17];
            VEC a24 = zero, a25 = zero, a26 = state[18];
            VEC a34 = zero, a35 = zero, a36 = state[19];
            VEC a40 = zero, a41 = zero, a42 = zero, a43 = zero, a44 = zero, a45 = zero;
            /* Row 5 couples in at pivot 4 alone: cells (5, 0) and (5, 1)
             * are never read. */
            VEC a52 = zero, a53 = zero, a54 = zero, a55 = zero;
            VEC a46 = value, a56 = anchored;
            const VEC before_previous = state[20], previous = state[21];

            /* Fold the pattern, entry by entry in caller order (each
             * off-diagonal entry also mirrored). */
            a44 = a44 + one;
            a55 = a55 + one;
            a54 = a54 + one;
            a45 = a45 + one;
            a55 = a55 + one;
            a44 = a44 + first;
            a22 = a22 + first;
            a42 = a42 + minus_first;
            a24 = a24 + minus_first;
            a44 = a44 + second;
            a22 = a22 + four_second;
            a00 = a00 + second;
            a42 = a42 + minus_two_second;
            a24 = a24 + minus_two_second;
            a40 = a40 + second;
            a04 = a04 + second;
            a20 = a20 + minus_two_second;
            a02 = a02 + minus_two_second;

            /* Sweep on pivot k: rows k + 1 up to the appended rows that
             * have coupled in (BatchedIncrementalLDLT._staged_pattern),
             * columns k + 1 .. 6, factor row / pivot, cell - factor * the
             * pivot row's. */
            VEC f;
#define ELIMINATE(row, k, col) a##row##col = a##row##col - f * a##k##col
#define SWEEP0(row) f = a##row##0 / a00; ELIMINATE(row, 0, 1); \
    ELIMINATE(row, 0, 2); ELIMINATE(row, 0, 3); ELIMINATE(row, 0, 4); \
    ELIMINATE(row, 0, 5); ELIMINATE(row, 0, 6)
#define SWEEP1(row) f = a##row##1 / a11; ELIMINATE(row, 1, 2); \
    ELIMINATE(row, 1, 3); ELIMINATE(row, 1, 4); ELIMINATE(row, 1, 5); \
    ELIMINATE(row, 1, 6)
#define SWEEP2(row) f = a##row##2 / a22; ELIMINATE(row, 2, 3); \
    ELIMINATE(row, 2, 4); ELIMINATE(row, 2, 5); ELIMINATE(row, 2, 6)
            SWEEP0(1); SWEEP0(2); SWEEP0(3); SWEEP0(4);
            SWEEP1(2); SWEEP1(3); SWEEP1(4);
            /* The new trailing state is final here; the tail sweeps
             * below destroy it. */
            state[0] = a22; state[1] = a23; state[2] = a24; state[3] = a25;
            state[4] = a32; state[5] = a33; state[6] = a34; state[7] = a35;
            state[8] = a42; state[9] = a43; state[10] = a44; state[11] = a45;
            state[12] = a52; state[13] = a53; state[14] = a54; state[15] = a55;
            state[16] = a26; state[17] = a36; state[18] = a46; state[19] = a56;
            SWEEP2(3); SWEEP2(4);
            f = a43 / a33; ELIMINATE(4, 3, 4); ELIMINATE(4, 3, 5); ELIMINATE(4, 3, 6);
            f = a54 / a44; ELIMINATE(5, 4, 5); ELIMINATE(5, 4, 6);
#undef SWEEP2
#undef SWEEP1
#undef SWEEP0
#undef ELIMINATE

            /* Back substitution of the last two rows. */
            seasonal = a56 / a55;
            VEC t = a45 * seasonal;
            t = a46 - t;
            trend = t / a44;

            /* IRLS weights of the round's next iteration:
             * 0.5 / max(|diff|, epsilon), max as np.maximum (a NaN
             * difference stays NaN). */
            VEC d = trend - previous;
            d = (VEC)((MASK)d & magnitude);
            MASK keep = (d >= epsilon) | (d != d);
            d = (VEC)(((MASK)d & keep) | ((MASK)epsilon & ~keep));
            weight_p = 0.5 / d;
            VEC e = previous * 2.0;
            e = trend - e;
            e = e + before_previous;
            e = (VEC)((MASK)e & magnitude);
            keep = (e >= epsilon) | (e != e);
            e = (VEC)(((MASK)e & keep) | ((MASK)epsilon & ~keep));
            weight_q = 0.5 / e;
            state[20] = previous;
            state[21] = trend;
        }

        /* The residual monitor: score against the moments before the
         * point, exactly _welford_score (0.0 for a monitor that has seen
         * nothing; both maxima as np.maximum), then fold the point in,
         * exactly _welford_fold. */
        double residual[L], score[L];
        for (int l = 0; l < L; l++) {
            double d = value[l] - trend[l];
            d = d - seasonal[l];
            residual[l] = d;
            double variance = m2[l] / (double)(count[l] > 1 ? count[l] : 1);
            variance = (variance >= 0.0 || variance != variance) ? variance : 0.0;
            double std = sqrt(variance);
            std = (std >= minimum_std || std != std) ? std : minimum_std;
            double z = fabs(d - mean[l]) / std;
            score[l] = count[l] == 0 ? 0.0 : z;
            count[l] = count[l] + 1;
            double delta = d - mean[l];
            mean[l] = mean[l] + delta / (double)count[l];
            double spread = d - mean[l];
            m2[l] = m2[l] + delta * spread;
        }
        for (int l = 0; l < live; l++) {
            const int64_t at = r * row_stride + base + l;
            trend_out[at] = trend[l];
            seasonal_out[at] = seasonal[l];
            residual_out[at] = residual[l];
            detection_out[at] = residual[l];
            score_out[at] = score[l];
            trend_sum[r] = trend_sum[r] + trend[l];
            seasonal_sum[r] = seasonal_sum[r] + seasonal[l];
            if (score[l] > threshold)
                tripped = 1;
        }
    }
    for (int l = 0; l < live; l++) {
        side->monitor_mean[column[l]] = mean[l];
        side->monitor_m2[column[l]] = m2[l];
    }

    /* Post-run state of the chunk: scratch -> working side. */
    for (int64_t i = 0; i < I; i++)
        for (int k = 0; k < STATE; k++) {
            double *row = state_row(side, 1, i, k);
            const VEC state = scratch[i * STATE + k];
            for (int l = 0; l < live; l++)
                row[column[l]] = state[l];
        }
    return tripped;
}

#endif
