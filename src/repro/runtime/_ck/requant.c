#include <math.h>
#include <string.h>

#include "ck.h"

/* Requant epilogue: v = acc*m + b, round half away from zero, clip, store.
 *
 * This translation unit MUST be compiled with -ffp-contract=off: the mul
 * and add have to round separately, exactly like the interpreted float64
 * numpy datapath (a fused multiply-add would round once and diverge by one
 * ulp on some accumulators).  |v| stays far below 2^62 (the verifier
 * proves every accumulator bound), so the int64 cast (= trunc) is defined
 * and `copysign((double)(int64_t)(|v| + 0.5), v)` equals numpy's
 * `copysign(floor(|v| + 0.5), v)` for every accumulator value.
 *
 * Sources and destinations are integer registers (or int32 accumulators)
 * of the element type `ty` (CK_U8 .. CK_F32).  Every register code is an
 * integer below 2^24 in magnitude and every accumulator an int32, so
 * converting a code to float, or either to double, is exact:
 * the arithmetic below is the float32/float64 datapath of the interpreted
 * tree, bit for bit, whatever type holds the codes in memory.
 */

/* staging width: the longest run one loop pass covers */
#define CK_ROW 1024

/* Each row loop below is generated once per register element type and
 * picked by a switch outside the loop (`ty` selects the type of the one
 * typed operand), so every loop is a straight single-typed pass the
 * compiler vectorizes.  Every value is integral and inside the
 * destination's range (clipped upstream), so each conversion is exact. */
#define CK_SWITCH(ty, GEN)                                                \
    switch (ty) {                                                         \
    case CK_U8: GEN(uint8_t) break;                                       \
    case CK_I8: GEN(int8_t) break;                                        \
    case CK_I16: GEN(int16_t) break;                                      \
    case CK_I32: GEN(int32_t) break;                                      \
    default: GEN(float) break;                                            \
    }

/* v = acc*m + b, round half away from zero, clip: the requant of
 * kernels.requant, copysign(floor(|v| + 0.5), v) with the floor of the
 * non-negative |v| + 0.5 taken by the int64 cast */
#define CK_REQUANT(v, mo, bo, lo, hi, r)                                  \
    double v_ = (v) * (mo);                                               \
    v_ = v_ + (bo);                                                       \
    double r = copysign((double)(int64_t)(fabs(v_) + 0.5), v_);           \
    r = r < (lo) ? (lo) : r;                                              \
    r = r > (hi) ? (hi) : r;

/* out[x] = requant(src[x]) for a typed source row */
static void requant_row(const void* src, int64_t sty, float* restrict out,
                        int64_t n, double mo, double bo, double lo,
                        double hi)
{
#define GEN(T)                                                            \
    { const T* restrict s = (const T*)src;                                \
      for (int64_t x = 0; x < n; ++x) {                                   \
          CK_REQUANT((double)s[x], mo, bo, lo, hi, r)                     \
          out[x] = (float)r; } }
    CK_SWITCH(sty, GEN)
#undef GEN
}

/* out[x] = src[x] for a typed source row */
static void load_row(const void* src, int64_t sty, float* restrict out,
                     int64_t n)
{
#define GEN(T)                                                            \
    { const T* restrict s = (const T*)src;                                \
      for (int64_t x = 0; x < n; ++x) out[x] = (float)s[x]; }
    CK_SWITCH(sty, GEN)
#undef GEN
}

/* dst[x] = src[x] into a typed destination row */
static void store_row(void* dst, int64_t qty, const float* restrict src,
                      int64_t n)
{
#define GEN(T)                                                            \
    { T* restrict d = (T*)dst;                                            \
      for (int64_t x = 0; x < n; ++x) d[x] = (T)src[x]; }
    CK_SWITCH(qty, GEN)
#undef GEN
}

static int64_t type_size(int64_t ty)
{
    return ty == CK_U8 || ty == CK_I8 ? 1 : ty == CK_I16 ? 2 : 4;
}

/* byte address of element `i` of a typed register */
static const char* at(const void* base, int64_t ty, int64_t i)
{
    return (const char*)base + i * type_size(ty);
}

/* Residual merge of one tile, in place: a = clip(round_half_away((a + s)
 * / rs), lo, hi) in float32, replicating the interpreted elementwise
 * sequence (sum, divide, round, clip — each rounding separately).  The
 * int64 cast trick is the same exact rounding as in the requant, one type
 * narrower. */
static void residual_tile(float* restrict a, const float* restrict s,
                          int64_t n, float rs, float lo, float hi)
{
    for (int64_t x = 0; x < n; ++x) {
        const float v = (a[x] + s[x]) / rs;
        const float h = v >= 0.0f ? 0.5f : -0.5f;
        float r = (float)(int64_t)(v + h);
        r = r < lo ? lo : r;
        r = r > hi ? hi : r;
        a[x] = r;
    }
}

/* Requantize the OH x OW window of one typed register plane (rows Wp
 * apart) into the padded center of the destination register at out_off;
 * the destination border is never touched. */
static void requant_rows(const void* src, int64_t sty, void* Q,
                         int64_t qty, int64_t o, int64_t n, int64_t N,
                         int64_t Wp, int64_t Hq, int64_t Wq, int64_t out_off,
                         int64_t OH, int64_t OW,
                         double mo, double bo, double lo, double hi)
{
    float vb[CK_ROW];
    for (int64_t y = 0; y < OH; ++y) {
        const int64_t qrow = ((o * N + n) * Hq + y + out_off) * Wq + out_off;
        for (int64_t x0 = 0; x0 < OW; x0 += CK_ROW) {
            const int64_t nb = OW - x0 < CK_ROW ? OW - x0 : CK_ROW;
            requant_row(at(src, sty, y * Wp + x0), sty, vb, nb,
                        mo, bo, lo, hi);
            store_row((void*)at(Q, qty, qrow + x0), qty, vb, nb);
        }
    }
}

/* Standalone MulQuant over a channel-major register pair (identity
 * shortcuts, fused LayerNorm tables).  Reads the (H, W) center of each
 * input plane (border pad ps) and requantizes it into the center of the
 * output register at out_off, via the same exact epilogue as the conv. */
void mulquant_cm(const void* P, int64_t pty, int64_t ps,
                 const double* m, int64_t mlen,
                 const double* b, int64_t blen, double lo, double hi,
                 void* Q, int64_t qty, int64_t C, int64_t N, int64_t Hp,
                 int64_t Wp, int64_t Hq, int64_t Wq, int64_t out_off,
                 int64_t H, int64_t W)
{
    for (int64_t c = 0; c < C; ++c) {
        const double mo = m[mlen > 1 ? c : 0];
        const double bo = b[blen > 1 ? c : 0];
        for (int64_t n = 0; n < N; ++n)
            requant_rows(at(P, pty, ((c * N + n) * Hp + ps) * Wp + ps), pty,
                         Q, qty, c, n, N, Wp, Hq, Wq, out_off, H, W,
                         mo, bo, lo, hi);
    }
}

/* Residual merge over channel-major registers: per plane row, the float32
 * add/divide/round/clip sequence of the interpreted datapath.  pa/psd/pq
 * are the three registers' border pads. */
void residual_cm(const void* A, int64_t aty, int64_t pa,
                 const void* S, int64_t sty, int64_t psd,
                 void* Q, int64_t qty, int64_t pq, float rs, float lo,
                 float hi, int64_t C, int64_t N, int64_t H, int64_t W)
{
    const int64_t Wa = W + 2 * pa, Ha = H + 2 * pa;
    const int64_t Ws = W + 2 * psd, Hs = H + 2 * psd;
    const int64_t Wq = W + 2 * pq, Hq = H + 2 * pq;
    float av[CK_ROW], sv[CK_ROW];
    for (int64_t c = 0; c < C; ++c)
        for (int64_t n = 0; n < N; ++n)
            for (int64_t y = 0; y < H; ++y) {
                const int64_t ia = ((c * N + n) * Ha + y + pa) * Wa + pa;
                const int64_t is = ((c * N + n) * Hs + y + psd) * Ws + psd;
                const int64_t iq = ((c * N + n) * Hq + y + pq) * Wq + pq;
                for (int64_t x0 = 0; x0 < W; x0 += CK_ROW) {
                    const int64_t nb = W - x0 < CK_ROW ? W - x0 : CK_ROW;
                    load_row(at(A, aty, ia + x0), aty, av, nb);
                    load_row(at(S, sty, is + x0), sty, sv, nb);
                    residual_tile(av, sv, nb, rs, lo, hi);
                    store_row((void*)at(Q, qty, iq + x0), qty, av, nb);
                }
            }
}

/* ------------------------------------------------------------------------
 * Epilogues of the plain (N, ...) float32 token / vector / logit
 * registers: one pass each over a GEMM result (or a register) into a
 * float32 destination.  Each replicates its numpy reference in
 * repro.runtime.kernels value for value, the sign of a zero included.
 */

/* requant of one float32 element (the sign of a zero result kept, as in
 * kernels.requant) */
static inline float requant_tok_one(float x, double mo, double bo,
                                    double lo, double hi)
{
    CK_REQUANT((double)x, mo, bo, lo, hi, r)
    return (float)r;
}

/* MulQuant over `rows` rows of `period` elements: element j of every row
 * takes m[j], b[j] (the bind-time broadcast of a scalar, a per-channel
 * last-axis or a per-position table; period 1 is the scalar). */
void requant_tok(const float* restrict x, int64_t rows, int64_t period,
                 const double* m, const double* b, double lo, double hi,
                 float* restrict out)
{
    if (period == 1) {
        const double mo = m[0], bo = b[0];
        for (int64_t i = 0; i < rows; ++i)
            out[i] = requant_tok_one(x[i], mo, bo, lo, hi);
        return;
    }
    for (int64_t r = 0; r < rows; ++r) {
        const float* restrict xr = x + r * period;
        float* restrict o = out + r * period;
        for (int64_t j = 0; j < period; ++j)
            o[j] = requant_tok_one(xr[j], m[j], b[j], lo, hi);
    }
}

/* Integer softmax over `rows` rows of `len` score codes: the offset from
 * the row max (capped at the table's last entry) looks up an integer exp,
 * and p = floor((e * 2^pb + denom / 2) / denom) in float64 — the quotient
 * is non-negative, so the int64 cast is the floor. */
void lut_softmax_tok(const float* restrict s, int64_t rows, int64_t len,
                     const int64_t* table, int64_t tlen, int64_t pb,
                     float* restrict out)
{
    const double unit = (double)((int64_t)1 << pb);
    const int64_t last = tlen - 1;
    for (int64_t r = 0; r < rows; ++r) {
        const float* restrict x = s + r * len;
        float* restrict o = out + r * len;
        int64_t mx = (int64_t)x[0];
        for (int64_t j = 1; j < len; ++j) {
            const int64_t v = (int64_t)x[j];
            mx = v > mx ? v : mx;
        }
        int64_t denom = 0;
        for (int64_t j = 0; j < len; ++j) {
            const int64_t d = mx - (int64_t)x[j];
            denom += table[d < last ? d : last];
        }
        const double half = (double)(denom / 2), dd = (double)denom;
        for (int64_t j = 0; j < len; ++j) {
            const int64_t d = mx - (int64_t)x[j];
            const double e = (double)table[d < last ? d : last];
            o[j] = (float)(int64_t)((e * unit + half) / dd);
        }
    }
}

/* GELU lookup: the input code, clipped to [qlb, qub], indexes the table */
void lut_gelu_tok(const float* restrict x, int64_t n, const int64_t* table,
                  int64_t qlb, int64_t qub, float* restrict out)
{
    for (int64_t i = 0; i < n; ++i) {
        int64_t v = (int64_t)x[i];
        v = v < qlb ? qlb : v;
        v = v > qub ? qub : v;
        out[i] = (float)table[v - qlb];
    }
}

/* Residual merge of two plain registers, the float32 sequence of
 * kernels.residual_merge: sign(v) * floor(|v| + 0.5), then clip. */
void residual_tok(const float* restrict a, const float* restrict s,
                  int64_t n, float rs, float lo, float hi,
                  float* restrict out)
{
    for (int64_t i = 0; i < n; ++i) {
        const float v = (a[i] + s[i]) / rs;
        const float t = (float)(int64_t)(fabsf(v) + 0.5f);
        float r = v > 0.0f ? t : v < 0.0f ? -t : 0.0f;
        r = r < lo ? lo : r;
        r = r > hi ? hi : r;
        out[i] = r;
    }
}

/* Zero every position of a staged span outside the valid windows: `pat`
 * holds one destination plane's validity (1 inside the OH x OW window,
 * 0 on the border), planes repeat every `period` positions, and the span
 * starts `p0` positions past a plane's first valid element. */
static void mask_border(float* restrict buf, int64_t len, int64_t p0,
                        const uint8_t* restrict pat, int64_t period)
{
    int64_t j = p0 % period;
    for (int64_t i = 0; i < len;) {
        const int64_t n = period - j < len - i ? period - j : len - i;
        float* restrict b = buf + i;
        const uint8_t* restrict m = pat + j;
        for (int64_t x = 0; x < n; ++x)
            b[x] = m[x] ? b[x] : 0.0f;
        i += n;
        j = 0;
    }
}

/* One contiguous span of int32 accumulators `a` whose element c sits at
 * destination element q0 + c and shortcut element s0 + c: requant, the
 * fused residual tail when S is given, zero the positions outside the
 * valid windows (the destination's border; see mask_border), store — all
 * in long vectorized runs. */
static void epilogue_span(const int32_t* a, int64_t len, int64_t p0,
                          const uint8_t* pat, int64_t period,
                          void* Q, int64_t qty, int64_t q0,
                          const void* S, int64_t sty, int64_t s0,
                          const ck_requant* rq)
{
    float av[CK_ROW], sv[CK_ROW];
    for (int64_t c0 = 0; c0 < len; c0 += CK_ROW) {
        const int64_t nb = len - c0 < CK_ROW ? len - c0 : CK_ROW;
        requant_row(a + c0, CK_I32, av, nb, rq->mo, rq->bo, rq->lo,
                    rq->hi);
        if (S) {
            if (rq->has_smq)
                requant_row(at(S, sty, s0 + c0), sty, sv, nb, rq->smo,
                            rq->sbo, rq->slo, rq->shi);
            else
                load_row(at(S, sty, s0 + c0), sty, sv, nb);
            residual_tile(av, sv, nb, (float)rq->rs, (float)rq->rlo,
                          (float)rq->rhi);
        }
        mask_border(av, nb, p0 + c0, pat, period);
        store_row((void*)at(Q, qty, q0 + c0), qty, av, nb);
    }
}

/* The conv epilogue of one output channel over a block of nbk sample
 * planes of full-grid int32 accumulators (`splane` apart), into the
 * channel-major register Q (and, fused, with the shortcut register S).
 *
 * `pat` is the destination plane's validity pattern (conv_valid_pattern).
 * Runs are made as long as possible, because output rows are short:
 * when the conv keeps the grid (stride 1) and Q has the accumulator's
 * plane geometry, the whole block is one span in both.  Otherwise each
 * plane's valid outputs are first gathered, a chunk of rows at a time,
 * into staging laid out in Q's geometry; rows wider than the staging, or
 * a shortcut of another geometry (the arena pads every channel register
 * alike, so not in a plan), go one row segment at a time.  The fused
 * residual tail is the byte-for-byte arithmetic of the standalone
 * kernels; the clamped integral intermediate is exact in every type, so
 * skipping the store/load round-trip through the intermediate register
 * changes no bits. */
void conv_epilogue(const int32_t* acc, int64_t nbk, int64_t splane,
                   int64_t Hp, int64_t Wp, int64_t stride,
                   void* Q, int64_t qty, int64_t o, int64_t n0, int64_t N,
                   int64_t Hq, int64_t Wq, int64_t out_off,
                   int64_t OH, int64_t OW, const uint8_t* pat,
                   const void* S, int64_t sty, int64_t Hs, int64_t Ws,
                   int64_t s_off, const ck_requant* rq)
{
    const int64_t qplane = Hq * Wq;
    const int64_t q0 = ((o * N + n0) * Hq + out_off) * Wq + out_off;
    const int64_t s0 = S ? ((o * N + n0) * Hs + s_off) * Ws + s_off : 0;
    /* staging positions the gather skips are border, masked in the span */
    int32_t stage[CK_ROW];
    if (S && (Hs != Hq || Ws != Wq))
        goto rows;
    if (stride == 1 && Wp == Wq && Hp == Hq) {
        epilogue_span(acc, (nbk - 1) * splane + (OH - 1) * Wp + OW, 0,
                      pat, qplane, Q, qty, q0, S, sty, s0, rq);
        return;
    }
    if (Wq <= CK_ROW) {
        /* a chunk is whole planes when they fit, else rows of one plane */
        const int64_t planes = CK_ROW / qplane;
        const int64_t k = planes ? OH : CK_ROW / Wq;
        const int64_t pstep = planes ? planes : 1;
        for (int64_t i0 = 0; i0 < nbk; i0 += pstep) {
            const int64_t np = nbk - i0 < pstep ? nbk - i0 : pstep;
            for (int64_t y0 = 0; y0 < OH; y0 += k) {
                const int64_t ny = OH - y0 < k ? OH - y0 : k;
                for (int64_t i = 0; i < np; ++i)
                    for (int64_t r = 0; r < ny; ++r) {
                        const int32_t* src = acc + (i0 + i) * splane
                                             + (y0 + r) * stride * Wp;
                        int32_t* dst = stage + i * qplane + r * Wq;
                        if (stride == 2)  /* a constant stride vectorizes */
                            for (int64_t x = 0; x < OW; ++x)
                                dst[x] = src[2 * x];
                        else
                            for (int64_t x = 0; x < OW; ++x)
                                dst[x] = src[x * stride];
                    }
                const int64_t off = i0 * qplane + y0 * Wq;
                epilogue_span(stage, (np - 1) * qplane + (ny - 1) * Wq + OW,
                              y0 * Wq, pat, qplane, Q, qty, q0 + off, S,
                              sty, s0 + off, rq);
            }
        }
        return;
    }
rows:
    for (int64_t i = 0; i < nbk; ++i)
        for (int64_t y = 0; y < OH; ++y)
            for (int64_t x0 = 0; x0 < OW; x0 += CK_ROW) {
                const int64_t nx = OW - x0 < CK_ROW ? OW - x0 : CK_ROW;
                const int32_t* src = acc + i * splane + y * stride * Wp
                                     + x0 * stride;
                for (int64_t x = 0; x < nx; ++x)
                    stage[x] = src[x * stride];
                epilogue_span(stage, nx, x0, pat, qplane, Q, qty,
                              q0 + i * qplane + y * Wq + x0, S, sty,
                              s0 + i * Hs * Ws + y * Ws + x0, rq);
            }
}

/* Validity of the Hq*Wq positions of a destination plane, counted from
 * its first valid element: 1 inside the OH x OW window, 0 on the border. */
void conv_valid_pattern(uint8_t* pat, int64_t Hq, int64_t Wq, int64_t OH,
                        int64_t OW)
{
    for (int64_t p = 0; p < Hq * Wq; ++p)
        pat[p] = p % Wq < OW && p / Wq < OH;
}
