#include <pthread.h>
#include <stdint.h>

void conv_acc_block(const float*, const int64_t*, const float*,
                    int64_t, int64_t, int64_t,
                    float*, int64_t, int64_t);
void conv_acc_block8(const float*, const int64_t*, const float*,
                     int64_t, int64_t, int64_t,
                     float*, int64_t, int64_t);
void requant_rows(const float*, float*,
                  int64_t, int64_t, int64_t,
                  int64_t, int64_t, int64_t,
                  int64_t, int64_t, int64_t,
                  int64_t, int64_t,
                  double, double, double, double);
void residual_row(const float*, const float*, float*,
                  int64_t, float, float, float);
void fused_res_rows(const float*, const float*, float*,
                    int64_t, int64_t, int64_t,
                    int64_t, int64_t,
                    int64_t, int64_t, int64_t,
                    int64_t, int64_t, int64_t,
                    int64_t, int64_t,
                    double, double, double, double,
                    int64_t, double, double,
                    double, double,
                    double, double, double);

#define CK_MAX_TAPS 8192
#define CK_MAX_THREADS 16

/* Fused integer conv + MulQuant over channel-major padded registers.
 *
 * Input register P is (C, N, Hp, Wp) with the conv's zero padding baked
 * into the register border (in_off = register_pad - conv_pad positions in
 * from the edge).  Output register Q is (O, N, Hq, Wq); valid outputs land
 * in its center at out_off.  acc is caller-provided scratch of acc_len
 * floats (>= 4 * Hp * Wp).
 *
 * Samples are processed in blocks sized so one block's input planes stay
 * within L2; per block, each group of 4 output channels runs one
 * register-blocked accumulation over the whole block followed by the exact
 * requant epilogue.  The caller must reject convs with more than
 * CK_MAX_TAPS taps (returned via conv_mq_taps_cap).
 */
int64_t conv_mq_taps_cap(void) { return CK_MAX_TAPS; }

/* Standalone MulQuant over a channel-major register pair (identity
 * shortcuts, fused LayerNorm tables).  Reads the (H, W) center of each
 * input plane (border pad ps) and requantizes it into the center of the
 * output register at out_off, via the same exact epilogue as the conv. */
void mulquant_cm(const float* P, int64_t ps,
                 const double* m, int64_t mlen,
                 const double* b, int64_t blen, double lo, double hi,
                 float* Q, int64_t C, int64_t N, int64_t Hp, int64_t Wp,
                 int64_t Hq, int64_t Wq, int64_t out_off,
                 int64_t H, int64_t W)
{
    for (int64_t c = 0; c < C; ++c) {
        const double mo = m[mlen > 1 ? c : 0];
        const double bo = b[blen > 1 ? c : 0];
        for (int64_t n = 0; n < N; ++n)
            requant_rows(P + ((c * N + n) * Hp + ps) * Wp + ps, Q,
                         c, n, N, Hp, Wp, 1, Hq, Wq, out_off, H, W,
                         mo, bo, lo, hi);
    }
}

/* Residual merge over channel-major registers: per plane row, the float32
 * add/divide/round/clip sequence of the interpreted datapath.  pa/psd/pq
 * are the three registers' border pads. */
void residual_cm(const float* A, int64_t pa, const float* S, int64_t psd,
                 float* Q, int64_t pq, float rs, float lo, float hi,
                 int64_t C, int64_t N, int64_t H, int64_t W)
{
    const int64_t Wa = W + 2 * pa, Ha = H + 2 * pa;
    const int64_t Ws = W + 2 * psd, Hs = H + 2 * psd;
    const int64_t Wq = W + 2 * pq, Hq = H + 2 * pq;
    for (int64_t c = 0; c < C; ++c)
        for (int64_t n = 0; n < N; ++n)
            for (int64_t y = 0; y < H; ++y)
                residual_row(A + ((c * N + n) * Ha + y + pa) * Wa + pa,
                             S + ((c * N + n) * Hs + y + psd) * Ws + psd,
                             Q + ((c * N + n) * Hq + y + pq) * Wq + pq,
                             W, rs, lo, hi);
}

/* ------------------------------------------------------------------------
 * Conv job: one conv (plain or fused-residual) over the whole batch,
 * decomposed into (sample block x output-channel block) tasks.  Tasks write
 * disjoint output regions, and every output element is produced by the very
 * same arithmetic whatever the task partition — the accumulation order
 * inside a task is fixed and the epilogues are elementwise — so any thread
 * count yields identical bits.
 */
typedef struct {
    const float* P;
    const float* w;
    const double* m; int64_t mlen;
    const double* b; int64_t blen;
    double lo, hi;
    /* fused residual tail (fused == 1) */
    int64_t fused;
    const float* S;
    const double* sm; int64_t smlen;
    const double* sb; int64_t sblen;
    double slo, shi; int64_t has_smq;
    double rs, rlo, rhi;
    int64_t Hs, Ws, s_off;
    float* Q;
    float* acc; int64_t acc_slot; /* floats per thread slot */
    int64_t C, N, Hp, Wp, O, kh, kw, stride, in_off;
    int64_t Hq, Wq, out_off, OH, OW, groups;
    int64_t splane, cg, og, K, maxbase, nb, n_blocks;
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
    const int64_t cbase = (o / J->og) * J->cg;
    const float* base = J->P + (cbase * J->N + n0) * J->splane
                        + J->in_off * J->Wp + J->in_off;
    float* acc = J->acc + slot * J->acc_slot;
    if (ob > 4)
        conv_acc_block8(base, J->offs, J->w + o * J->K, J->K, J->K, ob,
                        acc, nbk * J->splane, R);
    else
        conv_acc_block(base, J->offs, J->w + o * J->K, J->K, J->K, ob,
                       acc, nbk * J->splane, R);
    for (int64_t u = 0; u < ob; ++u) {
        const double mo = J->m[J->mlen > 1 ? o + u : 0];
        const double bo = J->b[J->blen > 1 ? o + u : 0];
        for (int64_t i = 0; i < nbk; ++i) {
            const float* arow = acc + u * nbk * J->splane + i * J->splane;
            if (!J->fused) {
                requant_rows(arow, J->Q, o + u, n0 + i, J->N,
                             J->Hp, J->Wp, J->stride, J->Hq, J->Wq,
                             J->out_off, J->OH, J->OW, mo, bo, J->lo, J->hi);
            } else {
                const double smo = J->has_smq
                    ? J->sm[J->smlen > 1 ? o + u : 0] : 0.0;
                const double sbo = J->has_smq
                    ? J->sb[J->sblen > 1 ? o + u : 0] : 0.0;
                fused_res_rows(arow, J->S, J->Q, o + u, n0 + i, J->N,
                               J->Wp, J->stride, J->Hq, J->Wq, J->out_off,
                               J->Hs, J->Ws, J->s_off, J->OH, J->OW,
                               mo, bo, J->lo, J->hi, J->has_smq, smo, sbo,
                               J->slo, J->shi, J->rs, J->rlo, J->rhi);
            }
        }
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
 * register blocking is 8-wide when the group width allows, else 4-wide;
 * `threads` is the worker count (clamped to what acc can seat). */
static void ck_conv_run(ck_conv_job* J, int64_t acc_len, int64_t nb,
                        int64_t threads)
{
    const int64_t splane = J->Hp * J->Wp;
    const int64_t cg = J->C / J->groups;
    const int64_t og = J->O / J->groups;
    const int64_t K = cg * J->kh * J->kw;
    if (K > CK_MAX_TAPS || J->O > CK_MAX_TAPS)
        return; /* Python gates both on conv_mq_taps_cap() */
    int64_t ob_step = og >= 8 ? 8 : 4;
    if (nb < 1) nb = 1;
    if (nb > J->N) nb = J->N;
    if (threads < 1) threads = 1;
    if (threads > CK_MAX_THREADS) threads = CK_MAX_THREADS;
    /* each thread slot must seat an (ob_step x nb x splane) accumulator */
    for (;;) {
        const int64_t slot = acc_len / threads;
        const int64_t cap = slot / (ob_step * splane);
        if (cap >= 1) {
            if (nb > cap) nb = cap;
            J->acc_slot = slot;
            break;
        }
        if (threads > 1) { threads = 1; continue; }
        if (ob_step == 8) { ob_step = 4; continue; }
        return; /* scratch cannot seat even one plane — caller bug */
    }
    J->splane = splane;
    J->cg = cg;
    J->og = og;
    J->K = K;
    J->maxbase = (J->in_off + J->kh - 1) * J->Wp + J->in_off + J->kw - 1;
    J->nb = nb;
    J->n_blocks = (J->N + nb - 1) / nb;

    /* tap offsets relative to the block base, shared by every group */
    int64_t offs[CK_MAX_TAPS];
    {
        int64_t cl = 0, ki = 0, kj = 0;
        const int64_t cstep = J->N * splane;
        for (int64_t k = 0; k < K; ++k) {
            offs[k] = cl * cstep + ki * J->Wp + kj;
            if (++kj == J->kw) {
                kj = 0;
                if (++ki == J->kh) { ki = 0; ++cl; }
            }
        }
    }
    /* output-channel blocks: ob_step channels, clamped at group and O ends */
    int64_t oblk[2 * (CK_MAX_TAPS > 4096 ? CK_MAX_TAPS : 4096)];
    int64_t n_oblk = 0;
    for (int64_t o = 0; o < J->O;) {
        int64_t ob = J->O - o < ob_step ? J->O - o : ob_step;
        const int64_t left = og - (o % og);
        if (ob > left) ob = left;
        oblk[2 * n_oblk] = o;
        oblk[2 * n_oblk + 1] = ob;
        ++n_oblk;
        o += ob;
    }
    J->offs = offs;
    J->oblk = oblk;
    J->n_oblk = n_oblk;
    J->ntasks = J->n_blocks * n_oblk;
    J->threads = threads;
    ck_run_job(J);
}

void conv_mq_cm(const float* P, const float* w, const double* m, int64_t mlen,
                const double* b, int64_t blen, double lo, double hi,
                float* Q, float* acc, int64_t acc_len,
                int64_t C, int64_t N, int64_t Hp, int64_t Wp,
                int64_t O, int64_t kh, int64_t kw, int64_t stride,
                int64_t in_off, int64_t Hq, int64_t Wq, int64_t out_off,
                int64_t OH, int64_t OW, int64_t groups,
                int64_t nb, int64_t threads)
{
    ck_conv_job J = {0};
    J.P = P; J.w = w; J.m = m; J.mlen = mlen; J.b = b; J.blen = blen;
    J.lo = lo; J.hi = hi;
    J.fused = 0;
    J.Q = Q; J.acc = acc;
    J.C = C; J.N = N; J.Hp = Hp; J.Wp = Wp; J.O = O;
    J.kh = kh; J.kw = kw; J.stride = stride; J.in_off = in_off;
    J.Hq = Hq; J.Wq = Wq; J.out_off = out_off; J.OH = OH; J.OW = OW;
    J.groups = groups;
    ck_conv_run(&J, acc_len, nb, threads);
}

void conv_mq_res_cm(const float* P, const float* w,
                    const double* m, int64_t mlen,
                    const double* b, int64_t blen, double lo, double hi,
                    const float* S, const double* sm, int64_t smlen,
                    const double* sb, int64_t sblen, double slo, double shi,
                    int64_t has_smq, double rs, double rlo, double rhi,
                    float* Q, float* acc, int64_t acc_len,
                    int64_t C, int64_t N, int64_t Hp, int64_t Wp,
                    int64_t O, int64_t kh, int64_t kw, int64_t stride,
                    int64_t in_off, int64_t Hq, int64_t Wq, int64_t out_off,
                    int64_t OH, int64_t OW, int64_t groups,
                    int64_t nb, int64_t threads,
                    int64_t Hs, int64_t Ws, int64_t s_off)
{
    ck_conv_job J = {0};
    J.P = P; J.w = w; J.m = m; J.mlen = mlen; J.b = b; J.blen = blen;
    J.lo = lo; J.hi = hi;
    J.fused = 1;
    J.S = S; J.sm = sm; J.smlen = smlen; J.sb = sb; J.sblen = sblen;
    J.slo = slo; J.shi = shi; J.has_smq = has_smq;
    J.rs = rs; J.rlo = rlo; J.rhi = rhi;
    J.Hs = Hs; J.Ws = Ws; J.s_off = s_off;
    J.Q = Q; J.acc = acc;
    J.C = C; J.N = N; J.Hp = Hp; J.Wp = Wp; J.O = O;
    J.kh = kh; J.kw = kw; J.stride = stride; J.in_off = in_off;
    J.Hq = Hq; J.Wq = Wq; J.out_off = out_off; J.OH = OH; J.OW = OW;
    J.groups = groups;
    ck_conv_run(&J, acc_len, nb, threads);
}
