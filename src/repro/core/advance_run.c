/*
 * advance_run: one run of the fleet kernel's T x I solve grid, per column,
 * its seasonality-shift searches and its commit.
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
 * round with its I x 22 doubles of state in cache for the whole run, and
 * no chunk reads what another writes, so chunks may run in any order, on
 * any thread.  Before its first round a chunk gathers its columns' state
 * from the committed side into its lanes, after its last it scatters it to
 * the working side; when its 16 columns are consecutive (every whole chunk
 * of a full-width run) a state row moves as one unaligned vector load or
 * store instead of 16 scalar inserts or extracts.
 *
 * The handle.  A call takes two pointers.  `struct advance_side` is one
 * orientation of a kernel's state: the addresses of its arrays, their
 * capacities and strides, and the configuration (period, lambdas, epsilon,
 * the monitor's minimum std and threshold, whether tripped columns are
 * searched and the candidate shifts they try).  A kernel keeps two, one
 * per side of its solver's and trend pairs' ping-pong, and rebuilds them
 * only when growing its columns replaces an array.  `struct
 * advance_run_args` is the run: rounds, width, the run's columns and the
 * planes with their strides.  The prototypes and both layouts are the
 * ctypes declarations in repro.core._native (rule HP007 holds each field's
 * order and kind to the declaration below).
 *
 * The search (the paper's Section 3.4).  When tripped columns are searched
 * (`searching`), every run position whose score passed `threshold` in the
 * chunks' pass is run again, alone, once the chunks are done: from its
 * committed state and its saved pre-run moments, through the one-lane
 * body, round by round, on the calling thread.  A round whose score
 * passes the threshold there tries the candidate shifts `shifts[0 ..
 * shift_count)` (FleetKernel._shifts: 0 first, then each further anchor
 * phase once, in the scalar search's order), each from the lane's
 * pre-round state with the anchor read at the slot (global_index + r + c)
 * mod period; the first smallest |residual| wins (a strict <, so a later
 * candidate wins only by doing strictly better), its state carries the
 * lane on and its trend, seasonal and residual are the round's outputs.
 * The detection residual, the score and the monitor's fold are candidate
 * 0's, as in the scalar model, and global_index still advances by one a
 * round.  The winner's seasonal value belongs at its shifted slot, so a
 * later round of the same lane may read a slot an earlier one wrote (a
 * positive shift writes ahead; a negative candidate reads behind): the
 * lane reads every slot through an overlay, the latest earlier round of
 * the run that wrote it, else the buffer.  Each lane's rounds are the
 * scalar model's rounds, one after the other, whatever the other lanes do.
 *
 * The screen, the one place lanes meet and the one definition of a bad
 * round: round r is bad when the sum of its final trend values plus the
 * sum of its final seasonal values -- each summed in run order, over the
 * planes once every chunk and every searched lane has written them -- is
 * not finite, or when a candidate of a search in round r (candidate 0
 * included) has a trend plus seasonal that is not finite.  It decides
 * where a run stops, never a value: a run with a bad round is handed back
 * and the caller takes that round through the scalar model.
 *
 * The commit.  A run with no bad round is committed here before the call
 * returns: each member's seasonal values scattered into its buffer, round
 * by round, each at its round's slot (a searched round's winner at its
 * shifted one), global_index, points_processed and last_detection_residual
 * advanced, last_applied_shift set by the last non-zero winner, and for a
 * subset its columns of the blocks, right-hand sides and trend pairs
 * copied from the working side.  A full-width run copies nothing: it
 * reports that the caller must flip the ping-pong, a swap of references.
 * A run with a bad round commits nothing.
 *
 * Two widths.  The iteration is written once below, over a GCC vector of
 * CHUNK_LANES doubles, and the file includes itself twice to instantiate
 * it: 16 lanes for chunks of columns, 1 lane for narrow runs -- a
 * one-column `process`, a chunk's ragged tail of fewer than NARROW_BELOW
 * columns, and a searched lane and its candidates.  Each cell of the
 * augmented block is a local, the
 * fold and the five sweeps unrolled in the per-cell operation order of the
 * reference, every cell computed (a structural zero included, so signed
 * zeros and NaN propagate as they do there).  As locals the
 * cells are the compiler's to keep in registers, where a staged block in
 * memory would send every sweep step through a load and a store.  On
 * x86-64 glibc `advance_run` and the chunk loop both threads run
 * (`run_claimed`) are built as target clones (AVX-512F, AVX2, baseline),
 * the chunk bodies inlined into each, and the dynamic loader's ifunc
 * resolver picks one from cpuid when the library is opened, so one cached
 * library serves every x86-64 CPU; elsewhere it is one baseline build.
 * Every operation is correctly rounded per lane (add, sub, mul, div,
 * compare/select, fabs as a sign mask), so neither the lane count, the
 * clone nor the thread can change a bit.
 *
 * The split.  A run of at least SPLIT_FROM chunk-rounds (a measured cut,
 * see there) is split between the calling thread and a helper: one thread
 * per process, started by the first such run, asleep on a condition
 * variable between runs -- it never spins.  Chunks are claimed one at a
 * time through one atomic counter, the caller's from the front and the
 * helper's from the back, so however late the helper wakes (or if it
 * never gets a CPU) every chunk runs exactly once and the caller pays only
 * the wake: once the counter is spent it withdraws a job the helper never
 * took up, or waits out the helper's last chunk.  The helper's lanes are
 * the second half of the kernel's scratch.  A run that finds the helper
 * busy (another thread's run; ctypes lets go of the GIL) runs alone, and
 * so does every run of a process allowed one CPU, which has no helper.
 * Where the helper runs decides whether the halves overlap.  Measured on
 * a 2-vCPU Xeon, 181 8-round runs over 500 columns: left unpinned, the
 * helper took up 107-110 of the jobs, every one on the caller's CPU, and
 * wall time equalled process CPU time (183-195 against 179-190 ms) -- the
 * halves ran one after the other; kept off the caller's CPU, it took up
 * 180-181, none there, in 109-129 ms of wall time for 205-240 ms of CPU.
 * So its mask is the CPUs the process may use minus the caller's
 * (sched_getaffinity, sched_getcpu), re-pointed -- inside that set, and
 * only the helper's own mask -- when a run finds the caller on one of the
 * helper's (no re-pin in those 181 runs).  A forked child has no helper
 * (fork copies the calling thread alone): pthread_atfork resets the pool
 * and the child's first split run starts its own.
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
 *     r is global_index + r), `points_processed`,
 *     `last_detection_residual` and `last_applied_shift`;
 *   - the monitor's mean / m2, one entry per column, updated in place.
 * Values and outputs are indexed by run position: `planes` holds six
 * planes `plane_stride` apart -- values (read), then trend, seasonal,
 * residual, detection residual and score (written) -- each with rows of
 * run positions `row_stride` apart.  The pre-run moments of run position j
 * land in saved_moments[j] (mean) and saved_moments[width + j] (m2).
 *
 * advance_run returns ADVANCE_COMMITTED, or ADVANCE_FLIP for a committed
 * full-width run, else 2 * bad: `bad` the run's first bad round (see the
 * screen).  The screen's sums are one pass over the trend and seasonal
 * planes once every chunk and every searched lane has written them, on
 * the calling thread: the same additions in the same order as if the
 * chunks summed them in turn.  `scratch` holds advance_run_scratch(I)
 * doubles.  A run that cannot have the little memory that records its
 * searched lanes' slots returns 2 * 0: round 0 goes to the scalar model.
 */

#ifndef CHUNK_LANES /* ------------------------- the routines, first pass */

#ifdef __linux__
#define _GNU_SOURCE /* sched_getcpu, CPU sets, pthread_setaffinity_np */
#define HELPER_THREAD 1
#endif
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#ifdef HELPER_THREAD
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#endif

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
/* A run of at least this many chunk-rounds (chunks times rounds) is split
 * with the helper thread.  Measured on a 2-vCPU AVX-512 Xeon, I = 8, a
 * full-width run through update_block, split against not: a split costs
 * ~35-50 us (the helper picks the job up ~15-20 us after it is posted,
 * and the caller waits ~20-30 us for the helper's last chunk), and it
 * wins past ~32 -- 8 rounds: 3 chunks 1.00x, 4 0.93x, 8 0.81x, 16 0.63x;
 * 4 rounds: 6 chunks 1.02x, 8 0.92x; 2 rounds: 8 chunks 1.01x, 16 0.75x;
 * 1 round: 12 chunks 0.99x, 24 0.76x. */
#define SPLIT_FROM 32
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
    int64_t *last_applied_shift;
    double *monitor_mean;
    double *monitor_m2;
    double *saved_moments;
    double *scratch;
    int64_t iterations;
    int64_t members;
    int64_t searching;
    const int64_t *shifts;  /* the candidate shifts, 0 first */
    int64_t shift_count;
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

/* A run's chunks, claimed one at a time through `claimed` from the front
 * (the calling thread) and from the back (the helper). */
struct job {
    const struct advance_side *side;
    const struct advance_run_args *run;
    int64_t chunks;
    int64_t claimed;  /* chunks handed out from either end, atomically */
    int64_t tripped;  /* the helper's: whether a live score of its chunks passed */
};

/* Doubles of lane state one thread's chunks need. */
static inline int64_t lane_doubles(int64_t iterations)
{
    return iterations * STATE * LANES;
}

/* Doubles of scratch a run of `iterations` IRLS iterations needs: the
 * calling thread's lanes, then the helper's. */
int64_t advance_run_scratch(int64_t iterations)
{
    return 2 * lane_doubles(iterations);
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

/* The residual monitor on one residual d: its z-score against the moments
 * of *count points, exactly fleet._welford_score (0.0 for a monitor that
 * has seen nothing; both maxima as np.maximum), then d folded in, exactly
 * fleet._welford_fold.  Returns the score. */
static inline double monitor_step(
    double d, int64_t *count, double *mean, double *m2, double minimum_std)
{
    double variance = *m2 / (double)(*count > 1 ? *count : 1);
    variance = (variance >= 0.0 || variance != variance) ? variance : 0.0;
    double std = sqrt(variance);
    std = (std >= minimum_std || std != std) ? std : minimum_std;
    double z = fabs(d - *mean) / std;
    const double score = *count == 0 ? 0.0 : z;
    *count = *count + 1;
    double delta = d - *mean;
    *mean = *mean + delta / (double)*count;
    double spread = d - *mean;
    *m2 = *m2 + delta * spread;
    return score;
}

/* Whether x is finite: x - x is NaN exactly when it is not. */
static inline int is_finite(double x)
{
    x = x - x;
    return x == x;
}

#define CHUNK_LANES 16
#define VEC vec16
#define MASK mask16
#define CHUNK chunk16
#define ROUND round16
#include __FILE__
#undef CHUNK_LANES
#undef VEC
#undef MASK
#undef CHUNK
#undef ROUND

#define CHUNK_LANES 1
#define VEC vec1
#define MASK mask1
#define CHUNK chunk1
#define ROUND round1
#include __FILE__
#undef CHUNK_LANES
#undef VEC
#undef MASK
#undef CHUNK
#undef ROUND

/* Chunk `chunk` of a run -- run positions from 16 * chunk -- on the lanes
 * in `lanes`: 16 wide, or one by one when fewer than NARROW_BELOW are
 * live.  Returns 1 if a live lane's score passed the threshold. */
INLINE int64_t run_chunk(
    const struct advance_side *side, const struct advance_run_args *run,
    int64_t chunk, double *lanes)
{
    const int64_t base = chunk * LANES;
    const int64_t live = run->width - base < LANES ? run->width - base : LANES;
    if (live >= NARROW_BELOW)
        return chunk16(side, run, base, live, lanes);
    int64_t tripped = 0;
    for (int64_t position = base; position < base + live; position++)
        tripped |= chunk1(side, run, position, 1, lanes);
    return tripped;
}

/* Claim chunks of `job` until none is left -- the next from the front, or
 * from the back for the helper -- and run each on the lanes in `lanes`;
 * ORs whether a score passed into *tripped, returns the chunks run. */
CLONED static int64_t run_claimed(
    struct job *job, int from_back, double *lanes, int64_t *tripped)
{
    int64_t mine = 0;
    while (__atomic_fetch_add(&job->claimed, 1, __ATOMIC_RELAXED) < job->chunks) {
        const int64_t chunk = from_back ? job->chunks - 1 - mine : mine;
        *tripped |= run_chunk(job->side, job->run, chunk, lanes);
        mine++;
    }
    return mine;
}

#ifdef HELPER_THREAD
/* The helper: at most one thread, started by the first split run, asleep
 * on `wake` between runs.  `busy` gives it to one run at a time. */
static struct {
    pthread_mutex_t lock;
    pthread_cond_t wake;  /* a job was posted */
    pthread_cond_t left;  /* the helper left its job */
    pthread_t thread;
    int started;          /* 1 running; -1 none: one allowed CPU, or no thread */
    int busy;             /* a run holds the helper */
    int working;          /* the helper is in a job */
    struct job *posted;   /* a job the helper has not taken up */
    int64_t helped;       /* chunks the helper has run */
    cpu_set_t cpus;       /* the helper's mask */
} helper = {
    PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER, PTHREAD_COND_INITIALIZER
};

static void *helper_main(void *unused)
{
    (void)unused;
    pthread_mutex_lock(&helper.lock);
    for (;;) {
        while (helper.posted == 0)
            pthread_cond_wait(&helper.wake, &helper.lock);
        struct job *job = helper.posted;
        helper.posted = 0;
        helper.working = 1;
        pthread_mutex_unlock(&helper.lock);
        double *lanes = job->side->scratch + lane_doubles(job->side->iterations);
        int64_t tripped = 0;
        const int64_t ran = run_claimed(job, 1, lanes, &tripped);
        pthread_mutex_lock(&helper.lock);
        job->tripped = tripped;
        helper.helped += ran;
        helper.working = 0;
        pthread_cond_signal(&helper.left);
    }
    return 0;
}

static void fork_prepare(void)
{
    pthread_mutex_lock(&helper.lock);
}

static void fork_parent(void)
{
    pthread_mutex_unlock(&helper.lock);
}

/* A forked child has the forking thread alone: no helper, until its own
 * first split run starts one. */
static void fork_child(void)
{
    pthread_mutex_unlock(&helper.lock);
    pthread_cond_init(&helper.wake, 0);
    pthread_cond_init(&helper.left, 0);
    helper.started = helper.busy = helper.working = 0;
    helper.posted = 0;
    helper.helped = 0;
}

/* Start the helper (under the lock), its mask the CPUs this thread may run
 * on but the one it runs on; with no other CPU there is none. */
static void helper_start(void)
{
    static int forks_handled;
    cpu_set_t cpus;
    sigset_t every, kept;
    pthread_attr_t attributes;
    const int cpu = sched_getcpu();
    helper.started = -1;
    if (cpu < 0 || sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return;
    CPU_CLR(cpu, &cpus);
    if (CPU_COUNT(&cpus) == 0 || pthread_attr_init(&attributes) != 0)
        return;
    if (!forks_handled)
        forks_handled = pthread_atfork(fork_prepare, fork_parent, fork_child) == 0;
    pthread_attr_setdetachstate(&attributes, PTHREAD_CREATE_DETACHED);
    pthread_attr_setaffinity_np(&attributes, sizeof cpus, &cpus);
    /* Signals are left to the interpreter's threads. */
    sigfillset(&every);
    pthread_sigmask(SIG_SETMASK, &every, &kept);
    if (forks_handled
        && pthread_create(&helper.thread, &attributes, helper_main, 0) == 0) {
        helper.started = 1;
        helper.cpus = cpus;
    }
    pthread_sigmask(SIG_SETMASK, &kept, 0);
    pthread_attr_destroy(&attributes);
}

/* Keep the helper off the calling thread's CPU (under the lock): its mask
 * is re-pointed, inside the CPUs this thread may run on, only when the
 * caller is on one of the helper's. */
static void helper_place(void)
{
    cpu_set_t cpus;
    const int cpu = sched_getcpu();
    if (cpu < 0 || !CPU_ISSET(cpu, &helper.cpus)
        || sched_getaffinity(0, sizeof cpus, &cpus) != 0)
        return;
    CPU_CLR(cpu, &cpus);
    if (CPU_COUNT(&cpus) > 0
        && pthread_setaffinity_np(helper.thread, sizeof cpus, &cpus) == 0)
        helper.cpus = cpus;
}

/* Post `job` to the helper; 0 when the process has none or another run
 * holds it, and the caller runs every chunk itself. */
static int helper_post(struct job *job)
{
    pthread_mutex_lock(&helper.lock);
    if (helper.started == 0)
        helper_start();
    const int posted = helper.started > 0 && !helper.busy;
    if (posted) {
        helper.busy = 1;
        helper.posted = job;
        helper_place();
    }
    pthread_mutex_unlock(&helper.lock);
    if (posted)
        pthread_cond_signal(&helper.wake);
    return posted;
}

/* Once every chunk is claimed: withdraw the job if the helper never took
 * it up, else wait out its last chunk.  Whether the helper's chunks
 * tripped. */
static int64_t helper_collect(struct job *job)
{
    pthread_mutex_lock(&helper.lock);
    helper.posted = 0;
    while (helper.working)
        pthread_cond_wait(&helper.left, &helper.lock);
    helper.busy = 0;
    pthread_mutex_unlock(&helper.lock);
    return job->tripped;
}

/* Chunks the helper has run in this process; -1 when there is none (one
 * allowed CPU, or no thread could be started). */
int64_t advance_run_helped(void)
{
    pthread_mutex_lock(&helper.lock);
    const int64_t helped = helper.started < 0 ? -1 : helper.helped;
    pthread_mutex_unlock(&helper.lock);
    return helped;
}
#else
static int helper_post(struct job *job)
{
    (void)job;
    return 0;
}

static int64_t helper_collect(struct job *job)
{
    return job->tripped;
}

int64_t advance_run_helped(void)
{
    return -1;
}
#endif

/* The first round whose sums fail the screen, the run's length if none:
 * its trend values summed in run order plus its seasonal values summed in
 * run order, read off the planes once every chunk and every searched lane
 * has written them. */
static int64_t first_bad(const struct advance_run_args *run)
{
    const double *trend = run->planes + run->plane_stride;
    const double *seasonal = trend + run->plane_stride;
    int64_t r = 0;
    for (; r < run->rounds; r++) {
        const double *trends = trend + r * run->row_stride;
        const double *seasonals = seasonal + r * run->row_stride;
        double trend_sum = 0.0, seasonal_sum = 0.0;
        for (int64_t j = 0; j < run->width; j++) {
            trend_sum = trend_sum + trends[j];
            seasonal_sum = seasonal_sum + seasonals[j];
        }
        if (!is_finite(trend_sum + seasonal_sum))
            break;
    }
    return r;
}

/* The seasonal value a lane's round r reads at `slot`: that of the latest
 * earlier round of the run that wrote the slot (`written` holds each
 * earlier round's slot), else the committed buffer's. */
static inline double seasonal_at(
    const double *buffer, const int64_t *written, const double *seasonal_out,
    int64_t row_stride, int64_t r, int64_t slot)
{
    for (int64_t earlier = r - 1; earlier >= 0; earlier--)
        if (written[earlier] == slot)
            return seasonal_out[earlier * row_stride];
    return buffer[slot];
}

/* One round of the one-lane state in `state`, updated in place, at age
 * `age` with seasonal anchor `anchor`: trend and seasonal come back in
 * *trend and *seasonal. */
static inline void lane_round(
    const struct advance_side *side, double *state, double value, double anchor,
    int64_t age, double *trend, double *seasonal)
{
    vec1 lane_trend, lane_seasonal;
    round1(state, side->iterations, (vec1){value}, (vec1){value + anchor},
        (mask1){age < 1 ? -1 : 0}, (mask1){age < 2 ? -1 : 0}, side->lambda1,
        side->lambda2, side->epsilon, &lane_trend, &lane_seasonal);
    *trend = lane_trend[0];
    *seasonal = lane_seasonal[0];
}

/* Run position j of a run again, alone, searching the rounds whose score
 * passes the threshold (see the header): from the committed state and the
 * saved pre-run moments, with its outputs written over the chunks' pass's,
 * its state scattered to the working side and its moments to the monitor.
 * `record` receives the last non-zero winning shift (0 if none), then the
 * slot each round writes.  Returns the first round a candidate's trend
 * plus seasonal is not finite, the run's length if none. */
static int64_t search_lane(
    const struct advance_side *side, const struct advance_run_args *run,
    int64_t j, int64_t *record)
{
    const int64_t I = side->iterations, rounds = run->rounds, period = side->period;
    const int64_t plane_stride = run->plane_stride, row_stride = run->row_stride;
    const double *values = run->planes + j;
    double *trend_out = run->planes + plane_stride + j;
    double *seasonal_out = trend_out + plane_stride;
    double *residual_out = seasonal_out + plane_stride;
    double *detection_out = residual_out + plane_stride;
    double *score_out = detection_out + plane_stride;
    const int64_t column = run->columns[j], size = I * STATE;
    const int64_t index = side->global_index[column];
    const int64_t age = side->points_processed[column];
    const double *buffer = side->seasonal_buffer + column * side->seasonal_stride;
    int64_t *written = record + 1;
    double *state = side->scratch, *before = state + size, *trial = before + size;
    int64_t count = index;
    double mean = side->saved_moments[j], m2 = side->saved_moments[run->width + j];
    int64_t bad = rounds;
    record[0] = 0;

    for (int64_t i = 0; i < I; i++)
        for (int k = 0; k < STATE; k++)
            state[i * STATE + k] = state_row(side, 0, i, k)[column];
    for (int64_t r = 0; r < rounds; r++) {
        const int64_t at = r * row_stride;
        const double value = values[at];
        for (int64_t cell = 0; cell < size; cell++)
            before[cell] = state[cell];
        const int64_t slot = phase_of(index, r, period);
        double trend, seasonal;
        lane_round(side, state,
            value, seasonal_at(buffer, written, seasonal_out, row_stride, r, slot),
            age + r, &trend, &seasonal);
        double residual = value - trend;
        residual = residual - seasonal;
        const double score = monitor_step(residual, &count, &mean, &m2, side->minimum_std);
        detection_out[at] = residual;
        score_out[at] = score;
        written[r] = slot;
        if (score > side->threshold) {
            int64_t shift = 0;
            double best = fabs(residual);
            if (!is_finite(trend + seasonal) && r < bad)
                bad = r;
            for (int64_t c = 1; c < side->shift_count; c++) {
                for (int64_t cell = 0; cell < size; cell++)
                    trial[cell] = before[cell];
                const int64_t shifted = phase_of(index, r + side->shifts[c], period);
                double trial_trend, trial_seasonal;
                lane_round(side, trial,
                    value,
                    seasonal_at(buffer, written, seasonal_out, row_stride, r, shifted),
                    age + r, &trial_trend, &trial_seasonal);
                if (!is_finite(trial_trend + trial_seasonal) && r < bad)
                    bad = r;
                double trial_residual = value - trial_trend;
                trial_residual = trial_residual - trial_seasonal;
                if (fabs(trial_residual) < best) {
                    best = fabs(trial_residual);
                    double *won = trial;
                    trial = state;
                    state = won;
                    trend = trial_trend;
                    seasonal = trial_seasonal;
                    residual = trial_residual;
                    shift = side->shifts[c];
                    written[r] = shifted;
                }
            }
            if (shift != 0)
                record[0] = shift;
        }
        trend_out[at] = trend;
        seasonal_out[at] = seasonal;
        residual_out[at] = residual;
    }
    side->monitor_mean[column] = mean;
    side->monitor_m2[column] = m2;
    for (int64_t i = 0; i < I; i++)
        for (int k = 0; k < STATE; k++)
            state_row(side, 1, i, k)[column] = state[i * STATE + k];
    return bad;
}

/* Whether run position j's score passed the threshold in some round of
 * the chunks' pass. */
static int tripped_at(
    const struct advance_side *side, const struct advance_run_args *run, int64_t j)
{
    const double *score = run->planes + 5 * run->plane_stride + j;
    for (int64_t r = 0; r < run->rounds; r++)
        if (score[r * run->row_stride] > side->threshold)
            return 1;
    return 0;
}

/* Search every run position that tripped in the chunks' pass: `records`
 * receives, per searched position in run order, its position and
 * search_lane's record.  Returns the first round a candidate was not
 * finite, the run's length if none. */
static int64_t search_tripped(
    const struct advance_side *side, const struct advance_run_args *run,
    int64_t *records)
{
    int64_t bad = run->rounds;
    for (int64_t j = 0; j < run->width; j++) {
        if (!tripped_at(side, run, j))
            continue;
        records[0] = j;
        const int64_t found = search_lane(side, run, j, records + 1);
        if (found < bad)
            bad = found;
        records += 2 + run->rounds;
    }
    return bad;
}

/* Make a finished run the committed state; a full-width run returns
 * ADVANCE_FLIP for the caller to swap its sides, a subset ADVANCE_COMMITTED
 * once its columns are copied from the working side.  `records` are
 * search_tripped's, `searched` of them.  A lane that was not searched
 * writes `rounds` distinct seasonal slots (runs never exceed `period`
 * rounds); a searched one writes its rounds' slots in round order. */
static int64_t commit(
    const struct advance_side *side, const struct advance_run_args *run,
    const int64_t *records, int64_t searched)
{
    const int64_t rounds = run->rounds, n = run->width;
    const int64_t I = side->iterations, row_stride = run->row_stride;
    const double *seasonal_out = run->planes + 2 * run->plane_stride;
    const double *detection_out = run->planes + 4 * run->plane_stride;
    for (int64_t j = 0; j < n; j++) {
        const int64_t column = run->columns[j];
        const int64_t index = side->global_index[column];
        double *slots = side->seasonal_buffer + column * side->seasonal_stride;
        if (searched > 0 && records[0] == j) {
            for (int64_t r = 0; r < rounds; r++)
                slots[records[2 + r]] = seasonal_out[r * row_stride + j];
            if (records[1] != 0)
                side->last_applied_shift[column] = records[1];
            records += 2 + rounds;
            searched--;
        } else {
            for (int64_t r = 0; r < rounds; r++)
                slots[phase_of(index, r, side->period)] = seasonal_out[r * row_stride + j];
        }
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
    struct job job = {side, run, (run->width + LANES - 1) / LANES, 0, 0};
    const int split = job.chunks * run->rounds >= SPLIT_FROM && helper_post(&job);
    int64_t tripped = 0;
    run_claimed(&job, 0, side->scratch, &tripped);
    if (split)
        tripped |= helper_collect(&job);
    int64_t bad = run->rounds, searched = 0, *records = 0;
    if (tripped && side->searching) {
        for (int64_t j = 0; j < run->width; j++)
            searched += tripped_at(side, run, j);
        records = malloc(searched * (2 + run->rounds) * sizeof *records);
        if (records == 0)
            return 0;
        bad = search_tripped(side, run, records);
    }
    const int64_t screened = first_bad(run);
    if (screened < bad)
        bad = screened;
    const int64_t status = bad == run->rounds ? commit(side, run, records, searched) : 2 * bad;
    free(records);
    return status;
}

#else /* ------------------------ one chunk, CHUNK_LANES wide: second pass */

/* The I IRLS iterations of one round on the lanes' I x 22 state in
 * `lanes`, updated in place: the round's trend and seasonal -- its last
 * iteration's -- come back in *trend_out and *seasonal_out. */
INLINE void ROUND(
    double *lanes, int64_t I, VEC value, VEC anchored, MASK no_first,
    MASK no_second, double lambda1, double lambda2, double epsilon_value,
    VEC *trend_out, VEC *seasonal_out)
{
    enum { L = CHUNK_LANES };
    typedef double unaligned __attribute__((vector_size(L * sizeof(double)), aligned(8)));
    const VEC zero = {0.0}, one = zero + 1.0, epsilon = zero + epsilon_value;
    const MASK magnitude = (MASK){0} + INT64_MAX; /* every bit but the sign */
    unaligned *scratch = (unaligned *)lanes;
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
    *trend_out = trend;
    *seasonal_out = seasonal;
}

/* Lanes [0, live) of a chunk are run positions base + l; spare lanes redo
 * position `base`, and nothing of theirs is stored.  Returns 1 if a live
 * lane's score passed the threshold. */
INLINE int64_t CHUNK(
    const struct advance_side *side, const struct advance_run_args *run,
    int64_t base, int64_t live, double *lanes)
{
    enum { L = CHUNK_LANES };
    /* Unaligned vectors: the scratch and the state are plain doubles. */
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
    unaligned *scratch = (unaligned *)lanes;

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
     * per iteration (16 block cells, 4 right-hand sides, 2 trends).  A
     * chunk of consecutive columns -- every whole chunk of a full-width
     * run -- moves a state row as one vector, any other lane by lane. */
    int consecutive = live == L;
    for (int l = 1; l < L; l++)
        consecutive &= column[l] == column[0] + l;
    for (int64_t i = 0; i < I; i++)
        for (int k = 0; k < STATE; k++) {
            const double *row = state_row(side, 0, i, k);
            if (consecutive) {
                scratch[i * STATE + k] = *(const unaligned *)(row + column[0]);
                continue;
            }
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
        VEC trend, seasonal;
        ROUND(lanes, I, value, anchored, no_first, no_second, lambda1, lambda2,
            side->epsilon, &trend, &seasonal);

        /* The residual monitor: score against the moments before the
         * point, then fold the point in. */
        double residual[L], score[L];
        for (int l = 0; l < L; l++) {
            double d = value[l] - trend[l];
            d = d - seasonal[l];
            residual[l] = d;
            score[l] = monitor_step(d, &count[l], &mean[l], &m2[l], minimum_std);
        }
        for (int l = 0; l < live; l++) {
            const int64_t at = r * row_stride + base + l;
            trend_out[at] = trend[l];
            seasonal_out[at] = seasonal[l];
            residual_out[at] = residual[l];
            detection_out[at] = residual[l];
            score_out[at] = score[l];
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
            if (consecutive) {
                *(unaligned *)(row + column[0]) = state;
                continue;
            }
            for (int l = 0; l < live; l++)
                row[column[l]] = state[l];
        }
    return tripped;
}

#endif
