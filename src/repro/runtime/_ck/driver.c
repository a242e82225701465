#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>

#include "ck.h"

#define CK_MAX_TAPS 8192
#define CK_MAX_THREADS 16

/* Fused integer conv + MulQuant over channel-major padded registers.
 *
 * Input register P is (C, N, Hp, Wp) uint8 (or int8 when `sgn`) with the
 * conv's zero padding baked into the register border (in_off =
 * register_pad - conv_pad positions in from the edge).  Output register Q
 * is (O, N, Hq, Wq) of element type qty; valid outputs land in its center
 * at out_off.  w is the (O, kh*kw*cq/4) packed int32 weight matrix: per
 * output channel, kh x kw taps of cq channel bytes (channels zero-padded
 * to cq, a multiple of 4).  acc (acc_len int32) and scratch (sc_len int32)
 * are caller-provided per-thread scratch.
 *
 * Samples are processed in blocks sized so one block's input planes stay
 * within L2; per block, the dense path interleaves the group's planes 4
 * channels per word into the thread's scratch once, then each block of up
 * to 8 output channels runs one register-blocked accumulation over the
 * whole block followed by the exact requant epilogue.  `planar` convs
 * (depthwise) read the register directly.  The caller must reject convs
 * with more than CK_MAX_TAPS taps (returned via conv_mq_taps_cap).
 */
int64_t conv_mq_taps_cap(void) { return CK_MAX_TAPS; }

/* ------------------------------------------------------------------------
 * Conv job: one conv (plain or fused-residual) over the whole batch,
 * decomposed into (sample block x output-channel block) tasks.  Tasks write
 * disjoint output regions, and every output element is produced by the very
 * same integer arithmetic whatever the task partition — the epilogues are
 * elementwise — so any thread count yields identical bits.
 */
typedef struct {
    const uint8_t* P; int64_t sgn, planar;
    const int32_t* w;
    const double* m; int64_t mlen;
    const double* b; int64_t blen;
    double lo, hi;
    /* fused residual tail (fused == 1) */
    int64_t fused;
    const void* S; int64_t sty;
    const double* sm; int64_t smlen;
    const double* sb; int64_t sblen;
    double slo, shi; int64_t has_smq;
    double rs, rlo, rhi;
    int64_t Hs, Ws, s_off;
    void* Q; int64_t qty;
    int32_t* acc; int64_t acc_slot; /* int32 per thread slot */
    int32_t* sc; int64_t sc_slot;
    int64_t* held; /* per slot: sample block x group the scratch holds */
    const uint8_t* pat; /* destination plane validity (conv_valid_pattern) */
    int64_t C, N, Hp, Wp, O, kh, kw, stride, in_off;
    int64_t Hq, Wq, out_off, OH, OW, groups;
    int64_t splane, cg, cq, og, K, maxbase, nb, n_blocks;
    const int64_t* offs;
    const int64_t* oblk; int64_t n_oblk; /* (o, ob) pairs */
    int64_t ntasks, threads;
} ck_conv_job;

static void ck_conv_task(const ck_conv_job* J, int64_t t, int64_t slot)
{
    const int64_t bi = t / J->n_oblk;
    const int64_t ci = t % J->n_oblk;
    const int64_t n0 = bi * J->nb;
    const int64_t nbk = (n0 + J->nb <= J->N) ? J->nb : J->N - n0;
    const int64_t R = nbk * J->splane - J->maxbase;
    const int64_t o = J->oblk[2 * ci], ob = J->oblk[2 * ci + 1];
    const int64_t g = o / J->og;
    const int64_t cstep = J->N * J->splane;
    const int64_t first = J->in_off * J->Wp + J->in_off;
    const uint8_t* block = J->P + (g * J->cg * J->N + n0) * J->splane;
    int32_t* acc = J->acc + slot * J->acc_slot;
    if (J->planar) {
        conv_acc_planar(block + first, J->sgn, cstep, J->cg, J->kh, J->kw,
                        J->Wp, (const int8_t*)(J->w + o * J->K), 4 * J->K,
                        J->cq, ob, acc, nbk * J->splane, R);
    } else {
        int32_t* sc = J->sc + slot * J->sc_slot;
        const int64_t key = bi * J->groups + g;
        if (J->held[slot] != key) {
            conv_interleave(block, cstep, J->cg, J->sgn, nbk * J->splane,
                            sc, J->nb * J->splane);
            J->held[slot] = key;
        }
        /* an XOR-biased input adds 128 * sum(w) to every accumulator */
        int32_t corr[8] = {0};
        if (J->sgn) {
            for (int64_t u = 0; u < ob; ++u) {
                const int8_t* wu = (const int8_t*)(J->w + (o + u) * J->K);
                int32_t sum = 0;
                for (int64_t k = 0; k < 4 * J->K; ++k)
                    sum += wu[k];
                corr[u] = 128 * sum;
            }
        }
        conv_acc_words(sc + first, J->offs, J->w + o * J->K, J->K, J->K, ob,
                       corr, acc, nbk * J->splane, R);
    }
    for (int64_t u = 0; u < ob; ++u) {
        const int64_t oc = o + u;
        ck_requant rq = {
            J->m[J->mlen > 1 ? oc : 0], J->b[J->blen > 1 ? oc : 0],
            J->lo, J->hi, J->has_smq,
            J->has_smq ? J->sm[J->smlen > 1 ? oc : 0] : 0.0,
            J->has_smq ? J->sb[J->sblen > 1 ? oc : 0] : 0.0,
            J->slo, J->shi, J->rs, J->rlo, J->rhi};
        conv_epilogue(acc + u * nbk * J->splane, nbk, J->splane, J->Hp,
                      J->Wp, J->stride, J->Q, J->qty, oc, n0, J->N, J->Hq,
                      J->Wq, J->out_off, J->OH, J->OW, J->pat,
                      J->fused ? J->S : NULL, J->sty, J->Hs, J->Ws,
                      J->s_off, &rq);
    }
}

/* ------------------------------------------------------------- thread pool
 * Persistent worker pool, spawned lazily on the first multi-threaded conv.
 * One job runs at a time (concurrent callers serialize on ck_job_mu; a
 * caller with threads <= 1 runs inline and never touches the pool).  The
 * caller participates as slot 0; workers hold fixed slots 1..W and skip
 * jobs whose thread count excludes them.  fork() (plan.serve worker pools)
 * is handled via pthread_atfork: the child resets the pool — worker
 * threads do not survive fork — and respawns lazily.
 */
static pthread_mutex_t ck_job_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_mutex_t ck_pool_mu = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t ck_work_cv = PTHREAD_COND_INITIALIZER;
static pthread_cond_t ck_done_cv = PTHREAD_COND_INITIALIZER;
static pthread_once_t ck_fork_once = PTHREAD_ONCE_INIT;
static int64_t ck_pool_workers = 0;  /* spawned worker threads */
static int64_t ck_pool_ready = 0;    /* workers parked in the wait loop */
static int64_t ck_pool_gen = 0;      /* job generation counter */
static const ck_conv_job* ck_pool_job = NULL;
static int64_t ck_pool_threads = 0;  /* current job's thread count */
static int64_t ck_pool_cursor = 0;   /* next unclaimed task */
static int64_t ck_pool_active = 0;   /* workers still inside the job */

static void* ck_pool_worker(void* arg)
{
    const int64_t slot = (int64_t)(intptr_t)arg;
    pthread_mutex_lock(&ck_pool_mu);
    /* register before any further job can dispatch: seen starts at the
     * current generation so this worker only joins jobs it is counted in */
    int64_t seen = ck_pool_gen;
    ++ck_pool_ready;
    pthread_cond_broadcast(&ck_done_cv);
    for (;;) {
        while (ck_pool_gen == seen)
            pthread_cond_wait(&ck_work_cv, &ck_pool_mu);
        seen = ck_pool_gen;
        const ck_conv_job* J = ck_pool_job;
        const int64_t mine = slot < ck_pool_threads;
        pthread_mutex_unlock(&ck_pool_mu);
        if (mine) {
            for (;;) {
                const int64_t t = __atomic_fetch_add(&ck_pool_cursor, 1,
                                                     __ATOMIC_RELAXED);
                if (t >= J->ntasks)
                    break;
                ck_conv_task(J, t, slot);
            }
        }
        pthread_mutex_lock(&ck_pool_mu);
        if (mine && --ck_pool_active == 0)
            pthread_cond_broadcast(&ck_done_cv);
    }
    return NULL;
}

static void ck_fork_prepare(void)
{
    pthread_mutex_lock(&ck_job_mu);
    pthread_mutex_lock(&ck_pool_mu);
}

static void ck_fork_parent(void)
{
    pthread_mutex_unlock(&ck_pool_mu);
    pthread_mutex_unlock(&ck_job_mu);
}

static void ck_fork_child(void)
{
    /* re-init rather than unlock: the inherited condvars still count the
     * parent's parked workers, and a broadcast would wait on them forever */
    pthread_mutex_init(&ck_pool_mu, NULL);
    pthread_mutex_init(&ck_job_mu, NULL);
    pthread_cond_init(&ck_work_cv, NULL);
    pthread_cond_init(&ck_done_cv, NULL);
    ck_pool_workers = 0; /* worker threads are gone in the child */
    ck_pool_ready = 0;
    ck_pool_gen = 0;
    ck_pool_job = NULL;
    ck_pool_threads = 0;
    ck_pool_active = 0;
}

static void ck_fork_install(void)
{
    pthread_atfork(ck_fork_prepare, ck_fork_parent, ck_fork_child);
}

/* Grow the pool to serve `threads` participants (caller + threads-1
 * workers); returns the thread count actually available. */
static int64_t ck_pool_ensure(int64_t threads)
{
    pthread_once(&ck_fork_once, ck_fork_install);
    if (threads > CK_MAX_THREADS)
        threads = CK_MAX_THREADS;
    pthread_mutex_lock(&ck_pool_mu);
    while (ck_pool_workers < threads - 1) {
        pthread_t th;
        pthread_attr_t at;
        pthread_attr_init(&at);
        pthread_attr_setdetachstate(&at, PTHREAD_CREATE_DETACHED);
        const int rc = pthread_create(
            &th, &at, ck_pool_worker,
            (void*)(intptr_t)(ck_pool_workers + 1));
        pthread_attr_destroy(&at);
        if (rc != 0)
            break; /* cap at what we could spawn */
        ++ck_pool_workers;
    }
    /* wait until every spawned worker has registered (taken its seen
     * generation) so a dispatch never counts a worker that will skip it */
    while (ck_pool_ready < ck_pool_workers)
        pthread_cond_wait(&ck_done_cv, &ck_pool_mu);
    const int64_t avail = ck_pool_workers + 1;
    pthread_mutex_unlock(&ck_pool_mu);
    return threads < avail ? threads : avail;
}

static void ck_run_job(ck_conv_job* J)
{
    if (J->threads > 1)
        J->threads = ck_pool_ensure(J->threads);
    if (J->threads <= 1) {
        for (int64_t t = 0; t < J->ntasks; ++t)
            ck_conv_task(J, t, 0);
        return;
    }
    pthread_mutex_lock(&ck_job_mu);
    pthread_mutex_lock(&ck_pool_mu);
    ck_pool_job = J;
    ck_pool_threads = J->threads;
    ck_pool_cursor = 0;
    ck_pool_active = J->threads - 1;
    ++ck_pool_gen;
    pthread_cond_broadcast(&ck_work_cv);
    pthread_mutex_unlock(&ck_pool_mu);
    for (;;) {
        const int64_t t = __atomic_fetch_add(&ck_pool_cursor, 1,
                                             __ATOMIC_RELAXED);
        if (t >= J->ntasks)
            break;
        ck_conv_task(J, t, 0);
    }
    pthread_mutex_lock(&ck_pool_mu);
    while (ck_pool_active > 0)
        pthread_cond_wait(&ck_done_cv, &ck_pool_mu);
    pthread_mutex_unlock(&ck_pool_mu);
    pthread_mutex_unlock(&ck_job_mu);
}

/* Shared setup: tiling, tap offsets, oc-block table, dispatch.  `nb` is the
 * caller-chosen sample-block size (the runtime's fixed L2 budget); the
 * register blocking is 8 output channels, clamped at group ends; `threads`
 * is the worker count (clamped to what the scratch can seat). */
static void ck_conv_run(ck_conv_job* J, int64_t acc_len, int64_t sc_len,
                        int64_t nb, int64_t threads)
{
    const int64_t splane = J->Hp * J->Wp;
    const int64_t cg = J->C / J->groups;
    const int64_t cq = (cg + 3) / 4 * 4;
    const int64_t og = J->O / J->groups;
    const int64_t K = cq / 4 * J->kh * J->kw;
    if (cg * J->kh * J->kw > CK_MAX_TAPS || J->O > CK_MAX_TAPS)
        return; /* Python gates both on conv_mq_taps_cap() */
    if (nb < 1) nb = 1;
    if (nb > J->N) nb = J->N;
    if (threads < 1) threads = 1;
    if (threads > CK_MAX_THREADS) threads = CK_MAX_THREADS;
    /* each thread slot must seat an (8 x nb x splane) accumulator and, on
     * the dense path, the block's (cq/4 x nb x splane) interleaved words */
    for (;;) {
        const int64_t acc_cap = acc_len / threads / (8 * splane);
        const int64_t sc_cap = J->planar ? nb
                               : sc_len / threads / (cq / 4 * splane);
        const int64_t cap = acc_cap < sc_cap ? acc_cap : sc_cap;
        if (cap >= 1) {
            if (nb > cap) nb = cap;
            J->acc_slot = acc_len / threads;
            J->sc_slot = sc_len / threads;
            break;
        }
        if (threads > 1) { threads = 1; continue; }
        return; /* scratch cannot seat even one plane — caller bug */
    }
    J->splane = splane;
    J->cg = cg;
    J->cq = cq;
    J->og = og;
    J->K = K;
    J->maxbase = (J->in_off + J->kh - 1) * J->Wp + J->in_off + J->kw - 1;
    J->nb = nb;
    J->n_blocks = (J->N + nb - 1) / nb;

    /* packed-tap word offsets into the interleaved block, (row, column,
     * channel quad) in the weight words' order */
    int64_t offs[CK_MAX_TAPS];
    {
        int64_t k = 0;
        for (int64_t ki = 0; ki < J->kh; ++ki)
            for (int64_t kj = 0; kj < J->kw; ++kj)
                for (int64_t q = 0; q < cq / 4; ++q)
                    offs[k++] = q * nb * splane + ki * J->Wp + kj;
    }
    /* output-channel blocks: 8 channels, clamped at group and O ends */
    int64_t oblk[2 * (CK_MAX_TAPS > 4096 ? CK_MAX_TAPS : 4096)];
    int64_t n_oblk = 0;
    for (int64_t o = 0; o < J->O;) {
        int64_t ob = J->O - o < 8 ? J->O - o : 8;
        const int64_t left = og - (o % og);
        if (ob > left) ob = left;
        oblk[2 * n_oblk] = o;
        oblk[2 * n_oblk + 1] = ob;
        ++n_oblk;
        o += ob;
    }
    int64_t held[CK_MAX_THREADS];
    for (int64_t i = 0; i < CK_MAX_THREADS; ++i)
        held[i] = -1;
    uint8_t* pat = malloc((size_t)(J->Hq * J->Wq));
    if (pat == NULL)
        return;
    conv_valid_pattern(pat, J->Hq, J->Wq, J->OH, J->OW);
    J->pat = pat;
    J->offs = offs;
    J->oblk = oblk;
    J->n_oblk = n_oblk;
    J->held = held;
    J->ntasks = J->n_blocks * n_oblk;
    J->threads = threads;
    ck_run_job(J);
    free(pat);
}

void conv_mq_cm(const uint8_t* P, int64_t sgn, int64_t planar,
                const int32_t* w, const double* m, int64_t mlen,
                const double* b, int64_t blen, double lo, double hi,
                void* Q, int64_t qty, int32_t* acc, int64_t acc_len,
                int32_t* sc, int64_t sc_len,
                int64_t C, int64_t N, int64_t Hp, int64_t Wp,
                int64_t O, int64_t kh, int64_t kw, int64_t stride,
                int64_t in_off, int64_t Hq, int64_t Wq, int64_t out_off,
                int64_t OH, int64_t OW, int64_t groups,
                int64_t nb, int64_t threads)
{
    ck_conv_job J = {0};
    J.P = P; J.sgn = sgn; J.planar = planar;
    J.w = w; J.m = m; J.mlen = mlen; J.b = b; J.blen = blen;
    J.lo = lo; J.hi = hi;
    J.fused = 0;
    J.Q = Q; J.qty = qty; J.acc = acc; J.sc = sc;
    J.C = C; J.N = N; J.Hp = Hp; J.Wp = Wp; J.O = O;
    J.kh = kh; J.kw = kw; J.stride = stride; J.in_off = in_off;
    J.Hq = Hq; J.Wq = Wq; J.out_off = out_off; J.OH = OH; J.OW = OW;
    J.groups = groups;
    ck_conv_run(&J, acc_len, sc_len, nb, threads);
}

void conv_mq_res_cm(const uint8_t* P, int64_t sgn, int64_t planar,
                    const int32_t* w,
                    const double* m, int64_t mlen,
                    const double* b, int64_t blen, double lo, double hi,
                    const void* S, int64_t sty,
                    const double* sm, int64_t smlen,
                    const double* sb, int64_t sblen, double slo, double shi,
                    int64_t has_smq, double rs, double rlo, double rhi,
                    void* Q, int64_t qty, int32_t* acc, int64_t acc_len,
                    int32_t* sc, int64_t sc_len,
                    int64_t C, int64_t N, int64_t Hp, int64_t Wp,
                    int64_t O, int64_t kh, int64_t kw, int64_t stride,
                    int64_t in_off, int64_t Hq, int64_t Wq, int64_t out_off,
                    int64_t OH, int64_t OW, int64_t groups,
                    int64_t nb, int64_t threads,
                    int64_t Hs, int64_t Ws, int64_t s_off)
{
    ck_conv_job J = {0};
    J.P = P; J.sgn = sgn; J.planar = planar;
    J.w = w; J.m = m; J.mlen = mlen; J.b = b; J.blen = blen;
    J.lo = lo; J.hi = hi;
    J.fused = 1;
    J.S = S; J.sty = sty;
    J.sm = sm; J.smlen = smlen; J.sb = sb; J.sblen = sblen;
    J.slo = slo; J.shi = shi; J.has_smq = has_smq;
    J.rs = rs; J.rlo = rlo; J.rhi = rhi;
    J.Hs = Hs; J.Ws = Ws; J.s_off = s_off;
    J.Q = Q; J.qty = qty; J.acc = acc; J.sc = sc;
    J.C = C; J.N = N; J.Hp = Hp; J.Wp = Wp; J.O = O;
    J.kh = kh; J.kw = kw; J.stride = stride; J.in_off = in_off;
    J.Hq = Hq; J.Wq = Wq; J.out_off = out_off; J.OH = OH; J.OW = OW;
    J.groups = groups;
    ck_conv_run(&J, acc_len, sc_len, nb, threads);
}
