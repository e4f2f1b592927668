/*
 * advance_run: one run of the fleet kernel's T x I solve grid, per column.
 *
 * The native body of repro.core.fleet.FleetKernel._advance_run.  For every
 * column, round r = 0 .. T-1 and IRLS iteration i = 0 .. I-1 it performs
 * exactly the IEEE-754 double operations, in exactly the order, that the
 * NumPy wavefront (FleetKernel._run_wavefront + BatchedIncrementalLDLT.
 * extend_solve) performs for solve (i, r): stage the 6 x 7 augmented block,
 * fold the 13 pattern cells in caller order (mirrored), eliminate, store the
 * trailing block, tail-sweep, back-substitute two rows, reweight.  Solve
 * (i, r) reads only (i - 1, r) and (i, r - 1), so the order the grid is
 * walked in cannot change a bit; here a chunk of LANES columns walks it
 * round by round with its I x 22 doubles of state in cache for the whole run.
 *
 * Width: on x86-64 glibc the routine is built as target clones (AVX-512F,
 * AVX2, baseline) and the dynamic loader's ifunc resolver picks one from
 * cpuid when the library is opened, so one cached library serves every
 * x86-64 CPU; elsewhere it is one baseline build.  Sixteen lanes keep two
 * independent 8-double AVX-512 chains in flight per loop, which hides the
 * divide latency of the sweeps.  Every operation is correctly rounded per
 * lane (add, sub, mul, div, compare/select, fabs as a sign mask), so the
 * width a clone computes at cannot change a bit.
 *
 * After a round's last iteration each lane also runs the residual monitor
 * as the NumPy body does, round by round: the residual (value - trend) -
 * seasonal, its z-score against the monitor (fleet._welford_score) and its
 * Welford fold into the monitor (fleet._welford_fold), with the chunk's
 * moments in lanes for the whole run.  Every round is folded, a non-finite
 * one and those after it included; the pre-run moments of every run
 * position are saved first, and the caller puts them back whenever it
 * returns short.
 *
 * Bit-equality rules (checked by `python -m repro.analysis`, rule HP006):
 * doubles only; every multiply-then-subtract is two roundings (the loader
 * compiles with -ffp-contract=off); no reductions -- lanes never meet but in
 * the screen's sums, which decide the status and no value -- and the lane
 * loop is innermost, so the compiler may vectorise across columns only;
 * nothing from <math.h> but fabs and sqrt (correctly rounded by IEEE 754,
 * like + - * /); np.maximum's NaN-propagating semantics are spelled out; no
 * guards -- a zero pivot propagates non-finite values that the caller
 * screens post hoc, as it does for the NumPy body.  The prototype below is
 * the ctypes declaration's in repro.core._native (rule HP007).
 *
 * Layouts are the Python side's.  A run advances `n` members of a cohort,
 * each a kernel column: run position j is column `columns[j]` (any order,
 * no repeats; all columns for a full-width run).  Everything the kernel
 * keeps per column is read, and written, at the column:
 *   - blocks (4, 4, I, capacity), right-hand sides (4, I, capacity), trend
 *     pairs (2, I, pair_capacity); `in` is the committed side (never
 *     written), `out` the working side;
 *   - the seasonal buffer, rows of `period` doubles `seasonal_stride`
 *     apart, with `global_index` (the anchor of round r is the slot
 *     (global_index + r) mod period, and the monitor's count before round
 *     r is global_index + r) and `points_processed`;
 *   - the monitor's mean / m2, one entry per column, updated in place.
 * Values and outputs are indexed by run position: `planes` holds six
 * planes `plane_stride` apart -- values (read), then trend, seasonal,
 * residual, detection residual and score (written) -- each with rows of
 * run positions `row_stride` apart.  The pre-run moments of run position j
 * land in saved_moments[j] (mean) and saved_moments[n + j] (m2).
 *
 * Returns 2 * bad + tripped: `bad` the first round whose screen -- the sum
 * of its trend values plus the sum of its seasonal values, each summed in
 * run order, the one place lanes meet -- is not finite (n_rounds if none),
 * `tripped` 1 if some member's score passed `threshold` in any round.  A
 * clean run -- status 2 * n_rounds -- needs nothing more from the caller
 * than a commit.  `scratch` holds advance_run_scratch(I, n_rounds) doubles.
 */

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

#define LANES 16
#define W 4           /* half bandwidth */
#define BLOCK 6       /* W + the 2 variables a point appends */
#define RHS 6         /* column of the right-hand side in the augmented block */
#define STATE 22      /* per (iteration, lane): 16 block + 4 rhs + 2 trends */

/* The update pattern of one online point in local block coordinates
 * (HALF_BANDWIDTH + ContributionWorkspace._ROW_OFFSETS / _COL_OFFSETS) and,
 * per entry, which of the six distinct values it adds. */
enum { ONE, FIRST, MINUS_FIRST, SECOND, FOUR_SECOND, MINUS_TWO_SECOND, VALUES };
static const int CELL_ROW[13] = {4, 5, 5, 5, 4, 2, 4, 4, 2, 0, 4, 4, 2};
static const int CELL_COL[13] = {4, 5, 4, 5, 4, 2, 2, 4, 2, 0, 2, 0, 0};
static const int CELL_VALUE[13] = {
    ONE, ONE, ONE, ONE, FIRST, FIRST, MINUS_FIRST, SECOND, FOUR_SECOND,
    SECOND, MINUS_TWO_SECOND, SECOND, MINUS_TWO_SECOND};
/* Rows a sweep on pivot k reaches: appended rows that have not coupled in
 * yet carry an exact zero factor (BatchedIncrementalLDLT._staged_pattern). */
static const int SWEEP_LIMIT[BLOCK - 1] = {5, 5, 5, 5, 6};

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

static inline void sweep(double a[BLOCK][BLOCK + 1][LANES], int k)
{
    for (int row = k + 1; row < SWEEP_LIMIT[k]; row++) {
        double factor[LANES];
        for (int l = 0; l < LANES; l++)
            factor[l] = a[row][k][l] / a[k][k][l];
        for (int col = k + 1; col <= RHS; col++)
            for (int l = 0; l < LANES; l++) {
                double product = factor[l] * a[k][col][l];
                a[row][col][l] = a[row][col][l] - product;
            }
    }
}

CLONED int64_t advance_run(
    int64_t n_rounds, int64_t n_iterations, int64_t n, const int64_t *columns,
    const double *blocks_in, const double *rhs_in,
    double *blocks_out, double *rhs_out, int64_t capacity,
    const double *pairs_in, double *pairs_out, int64_t pair_capacity,
    const double *seasonal_buffer, int64_t seasonal_stride, int64_t period,
    const int64_t *global_index, const int64_t *points_processed,
    double lambda1, double lambda2, double epsilon,
    double *planes, int64_t plane_stride, int64_t row_stride,
    double *monitor_mean, double *monitor_m2, double *saved_moments,
    double minimum_std, double threshold, double *restrict scratch)
{
    const int64_t I = n_iterations;
    const double *values = planes;
    double *trend_out = planes + plane_stride;
    double *seasonal_out = trend_out + plane_stride;
    double *residual_out = seasonal_out + plane_stride;
    double *detection_out = residual_out + plane_stride;
    double *score_out = detection_out + plane_stride;
    double *trend_sum = scratch + I * STATE * LANES;
    double *seasonal_sum = trend_sum + n_rounds;
    for (int64_t r = 0; r < n_rounds; r++) {
        trend_sum[r] = 0.0;
        seasonal_sum[r] = 0.0;
    }
    int64_t tripped = 0;
    for (int64_t base = 0; base < n; base += LANES) {
        const int64_t live = n - base < LANES ? n - base : LANES;
        /* Spare lanes of the last chunk redo position `base`. */
        int64_t position[LANES], column[LANES];
        for (int l = 0; l < LANES; l++) {
            position[l] = base + (l < live ? l : 0);
            column[l] = columns[position[l]];
        }
        int64_t count[LANES];
        double mean[LANES], m2[LANES];
        for (int l = 0; l < LANES; l++) {
            count[l] = global_index[column[l]];
            mean[l] = monitor_mean[column[l]];
            m2[l] = monitor_m2[column[l]];
        }
        for (int l = 0; l < live; l++) {
            saved_moments[base + l] = mean[l];
            saved_moments[n + base + l] = m2[l];
        }

        /* Pre-run state of the chunk: committed side -> scratch. */
        for (int64_t i = 0; i < I; i++) {
            double *state = scratch + i * STATE * LANES;
            for (int cell = 0; cell < W * W; cell++)
                for (int l = 0; l < LANES; l++)
                    state[cell * LANES + l] =
                        blocks_in[(cell * I + i) * capacity + column[l]];
            for (int row = 0; row < W; row++)
                for (int l = 0; l < LANES; l++)
                    state[(16 + row) * LANES + l] =
                        rhs_in[(row * I + i) * capacity + column[l]];
            for (int slot = 0; slot < 2; slot++)
                for (int l = 0; l < LANES; l++)
                    state[(20 + slot) * LANES + l] =
                        pairs_in[(slot * I + i) * pair_capacity + column[l]];
        }

        for (int64_t r = 0; r < n_rounds; r++) {
            double value[LANES], anchored[LANES], weight_p[LANES], weight_q[LANES];
            double trend[LANES], seasonal[LANES];
            int no_first[LANES], no_second[LANES];
            for (int l = 0; l < LANES; l++) {
                value[l] = values[r * row_stride + position[l]];
                /* The seasonal anchor, phase as Python's % (never negative). */
                int64_t phase = (global_index[column[l]] + r) % period;
                if (phase < 0)
                    phase += period;
                anchored[l] =
                    value[l] + seasonal_buffer[column[l] * seasonal_stride + phase];
                /* A column's first online point has no trend-difference
                 * term and its second no second difference. */
                int64_t age = points_processed[column[l]] + r;
                no_first[l] = age < 1;
                no_second[l] = age < 2;
                weight_p[l] = 1.0;
                weight_q[l] = 1.0;
            }
            for (int64_t i = 0; i < I; i++) {
                double *state = scratch + i * STATE * LANES;
                double *before_previous = state + 20 * LANES;
                double *previous = state + 21 * LANES;
                double a[BLOCK][BLOCK + 1][LANES];
                double v[VALUES][LANES];

                for (int l = 0; l < LANES; l++) {
                    double first = weight_p[l] * lambda1;
                    double second = weight_q[l] * lambda2;
                    if (no_first[l])
                        first = 0.0;
                    if (no_second[l])
                        second = 0.0;
                    v[ONE][l] = 1.0;
                    v[FIRST][l] = first;
                    v[MINUS_FIRST][l] = -first;
                    v[SECOND][l] = second;
                    v[FOUR_SECOND][l] = second * 4.0;
                    v[MINUS_TWO_SECOND][l] = second * -2.0;
                }

                /* Stage: trailing block and its right-hand side top left,
                 * zeros in the appended rows and columns, the point's two
                 * right-hand sides below. */
                for (int row = 0; row < W; row++) {
                    for (int col = 0; col < W; col++)
                        for (int l = 0; l < LANES; l++)
                            a[row][col][l] = state[(row * W + col) * LANES + l];
                    for (int l = 0; l < LANES; l++) {
                        a[row][W][l] = 0.0;
                        a[row][W + 1][l] = 0.0;
                        a[row][RHS][l] = state[(16 + row) * LANES + l];
                    }
                }
                for (int row = W; row < BLOCK; row++)
                    for (int col = 0; col < BLOCK; col++)
                        for (int l = 0; l < LANES; l++)
                            a[row][col][l] = 0.0;
                for (int l = 0; l < LANES; l++) {
                    a[W][RHS][l] = value[l];
                    a[W + 1][RHS][l] = anchored[l];
                }

                /* Fold the pattern, entry by entry, each also mirrored. */
                for (int entry = 0; entry < 13; entry++) {
                    const int row = CELL_ROW[entry], col = CELL_COL[entry];
                    const double *add = v[CELL_VALUE[entry]];
                    for (int l = 0; l < LANES; l++)
                        a[row][col][l] = a[row][col][l] + add[l];
                    if (row != col)
                        for (int l = 0; l < LANES; l++)
                            a[col][row][l] = a[col][row][l] + add[l];
                }

                sweep(a, 0);
                sweep(a, 1);
                /* The new trailing state is final here; the tail sweeps
                 * below destroy it. */
                for (int row = 0; row < W; row++) {
                    for (int col = 0; col < W; col++)
                        for (int l = 0; l < LANES; l++)
                            state[(row * W + col) * LANES + l] =
                                a[row + 2][col + 2][l];
                    for (int l = 0; l < LANES; l++)
                        state[(16 + row) * LANES + l] = a[row + 2][RHS][l];
                }
                sweep(a, 2);
                sweep(a, 3);
                sweep(a, 4);

                /* Back substitution of the last two rows. */
                for (int l = 0; l < LANES; l++) {
                    seasonal[l] = a[5][RHS][l] / a[5][5][l];
                    double t = a[4][5][l] * seasonal[l];
                    t = a[4][RHS][l] - t;
                    trend[l] = t / a[4][4][l];
                }

                /* IRLS weights of the round's next iteration:
                 * 0.5 / max(|diff|, epsilon), max as np.maximum (a NaN
                 * difference stays NaN). */
                for (int l = 0; l < LANES; l++) {
                    double d = trend[l] - previous[l];
                    d = fabs(d);
                    d = (d >= epsilon || d != d) ? d : epsilon;
                    weight_p[l] = 0.5 / d;
                    double e = previous[l] * 2.0;
                    e = trend[l] - e;
                    e = e + before_previous[l];
                    e = fabs(e);
                    e = (e >= epsilon || e != e) ? e : epsilon;
                    weight_q[l] = 0.5 / e;
                    before_previous[l] = previous[l];
                    previous[l] = trend[l];
                }
            }

            /* The residual monitor: score against the moments before the
             * point, exactly _welford_score (0.0 for a monitor that has
             * seen nothing; both maxima as np.maximum), then fold the point
             * in, exactly _welford_fold. */
            double residual[LANES], score[LANES];
            for (int l = 0; l < LANES; l++) {
                double d = value[l] - trend[l];
                d = d - seasonal[l];
                residual[l] = d;
                double variance = m2[l] / (double)(count[l] > 1 ? count[l] : 1);
                variance =
                    (variance >= 0.0 || variance != variance) ? variance : 0.0;
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
            monitor_mean[column[l]] = mean[l];
            monitor_m2[column[l]] = m2[l];
        }

        /* Post-run state of the chunk: scratch -> working side. */
        for (int64_t i = 0; i < I; i++) {
            const double *state = scratch + i * STATE * LANES;
            for (int cell = 0; cell < W * W; cell++)
                for (int l = 0; l < live; l++)
                    blocks_out[(cell * I + i) * capacity + column[l]] =
                        state[cell * LANES + l];
            for (int row = 0; row < W; row++)
                for (int l = 0; l < live; l++)
                    rhs_out[(row * I + i) * capacity + column[l]] =
                        state[(16 + row) * LANES + l];
            for (int slot = 0; slot < 2; slot++)
                for (int l = 0; l < live; l++)
                    pairs_out[(slot * I + i) * pair_capacity + column[l]] =
                        state[(20 + slot) * LANES + l];
        }
    }
    int64_t bad = 0;
    while (bad < n_rounds) {
        /* x - x is NaN exactly when x is not finite. */
        double screen = trend_sum[bad] + seasonal_sum[bad];
        screen = screen - screen;
        if (screen != screen)
            break;
        bad++;
    }
    return 2 * bad + tripped;
}
