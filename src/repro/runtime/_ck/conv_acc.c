#include <string.h>

#include "ck.h"

/* Integer conv accumulation over channel-major uint8/int8 registers.
 *
 * Two loops share one contract: accumulate up to 8 output channels of one
 * conv over a contiguous block of sample planes into int32 rows of
 * `acc_stride` words.  The full padded grid is computed: every valid
 * output position of every sample in the block lives at a grid offset
 * below R, and positions >= R (which would read past the block or across a
 * sample seam) are never produced.
 *
 * conv_acc_words — the dense path.  `base` points at the top-left tap of
 * the block's first plane in a channel-interleaved scratch: each int32 word
 * holds the uint8 codes of 4 input channels at one grid position (see
 * conv_interleave).  `offs[k]` are the word offsets of the K packed taps
 * (channel quad, row, column) relative to it; `w` holds ob rows of K
 * packed weight words (4 int8 per word, wstride words apart); `corr[u]` is
 * subtracted from row u (128 * sum(w) when the input was XOR-biased from
 * int8, else 0).
 *
 * conv_acc_planar — depthwise convs (fewer than 4 channels per group):
 * a plain int32 loop straight over the planar register, no interleave.
 *
 * Every product is an 8x8-bit integer and every sum an int32; the plan
 * compiler proved |acc| < 2^31, so the result is exact under any blocking,
 * tiling or thread partition.
 */

#if defined(__AVX512F__) && defined(__AVX512VNNI__)
#include <immintrin.h>

int64_t conv_isa(void) { return 1; }

/* one 32-lane x ob-channel tile: two activation vectors feed 2*ob
 * vpdpbusd per packed tap; ob is a literal at the hot call site so the
 * 16 accumulators stay in registers */
static inline __attribute__((always_inline))
void tile32(const int32_t* base, const int64_t* offs, const int32_t* w,
            int64_t K, int64_t wstride, int64_t ob, const int32_t* corr,
            int32_t* acc, int64_t acc_stride, int64_t t0,
            __mmask16 m0, __mmask16 m1)
{
    __m512i a[8][2];
    for (int64_t u = 0; u < ob; ++u)
        a[u][0] = a[u][1] = _mm512_setzero_si512();
    for (int64_t k = 0; k < K; ++k) {
        const int32_t* s = base + offs[k] + t0;
        const __m512i s0 = _mm512_maskz_loadu_epi32(m0, s);
        const __m512i s1 = _mm512_maskz_loadu_epi32(m1, s + 16);
        for (int64_t u = 0; u < ob; ++u) {
            const __m512i wb = _mm512_set1_epi32(w[u * wstride + k]);
            a[u][0] = _mm512_dpbusd_epi32(a[u][0], s0, wb);
            a[u][1] = _mm512_dpbusd_epi32(a[u][1], s1, wb);
        }
    }
    for (int64_t u = 0; u < ob; ++u) {
        const __m512i c = _mm512_set1_epi32(corr[u]);
        int32_t* d = acc + u * acc_stride + t0;
        _mm512_mask_storeu_epi32(d, m0, _mm512_sub_epi32(a[u][0], c));
        _mm512_mask_storeu_epi32(d + 16, m1, _mm512_sub_epi32(a[u][1], c));
    }
}

void conv_acc_words(const int32_t* base, const int64_t* offs,
                    const int32_t* w, int64_t K, int64_t wstride, int64_t ob,
                    const int32_t* corr, int32_t* acc, int64_t acc_stride,
                    int64_t R)
{
    const __mmask16 full = (__mmask16)0xFFFF;
    int64_t t0 = 0;
    for (; t0 + 32 <= R; t0 += 32) {
        if (ob == 8)
            tile32(base, offs, w, K, wstride, 8, corr, acc, acc_stride, t0,
                   full, full);
        else
            tile32(base, offs, w, K, wstride, ob, corr, acc, acc_stride, t0,
                   full, full);
    }
    if (t0 < R) {
        /* masked tail: lanes past R neither fault nor get stored */
        const int64_t r0 = R - t0, r1 = r0 - 16;
        const __mmask16 m0 = r0 >= 16 ? full : (__mmask16)((1u << r0) - 1u);
        const __mmask16 m1 = r1 >= 16 ? full
                             : (r1 > 0 ? (__mmask16)((1u << r1) - 1u) : 0);
        tile32(base, offs, w, K, wstride, ob, corr, acc, acc_stride, t0,
               m0, m1);
    }
}

#else /* portable body: plain C int32, the same arithmetic */

int64_t conv_isa(void) { return 0; }

void conv_acc_words(const int32_t* base, const int64_t* offs,
                    const int32_t* w, int64_t K, int64_t wstride, int64_t ob,
                    const int32_t* corr, int32_t* acc, int64_t acc_stride,
                    int64_t R)
{
    for (int64_t u = 0; u < ob; ++u) {
        int32_t* restrict a = acc + u * acc_stride;
        const int8_t* wu = (const int8_t*)(w + u * wstride);
        for (int64_t t = 0; t < R; ++t)
            a[t] = -corr[u];
        for (int64_t k = 0; k < K; ++k) {
            const uint8_t* restrict s = (const uint8_t*)(base + offs[k]);
            const int32_t w0 = wu[4 * k], w1 = wu[4 * k + 1];
            const int32_t w2 = wu[4 * k + 2], w3 = wu[4 * k + 3];
            for (int64_t t = 0; t < R; ++t)
                a[t] += (s[4 * t] * w0 + s[4 * t + 1] * w1)
                        + (s[4 * t + 2] * w2 + s[4 * t + 3] * w3);
        }
    }
}
#endif

/* Gather one sample block of a group's planar uint8/int8 channel planes
 * into the dense path's channel-interleaved words: word t of quad q holds
 * channels 4q..4q+3 at block offset t, XOR 0x80 per byte when the
 * register is signed (int8 -> biased uint8).  Channels past cg (zero
 * weights) repeat the last real one.  `src` is channel cbase's plane at
 * the block's first sample; planes are `cstep` bytes apart. */
void conv_interleave(const uint8_t* src, int64_t cstep, int64_t cg,
                     int64_t sgn, int64_t len, int32_t* dst, int64_t dstep)
{
    const uint32_t x = sgn ? 0x80808080u : 0u;
    for (int64_t q = 0; 4 * q < cg; ++q) {
        const uint8_t* s[4];
        for (int64_t b = 0; b < 4; ++b) {
            const int64_t c = 4 * q + b < cg ? 4 * q + b : cg - 1;
            s[b] = src + c * cstep;
        }
        const uint8_t* restrict s0 = s[0];
        const uint8_t* restrict s1 = s[1];
        const uint8_t* restrict s2 = s[2];
        const uint8_t* restrict s3 = s[3];
        uint32_t* restrict d = (uint32_t*)(dst + q * dstep);
        for (int64_t t = 0; t < len; ++t)
            d[t] = ((uint32_t)s0[t] | ((uint32_t)s1[t] << 8)
                    | ((uint32_t)s2[t] << 16) | ((uint32_t)s3[t] << 24)) ^ x;
    }
}

/* Depthwise body: for each of ob output channels, sum cg x kh x kw taps of
 * weight bytes `w + u * wrow` (packed (kh, kw, 4*quads) layout, channel
 * fastest) over the planar register in 64-lane tiles. */
#define PLANAR_LOOP(T)                                                      \
    for (int64_t u = 0; u < ob; ++u) {                                      \
        const int8_t* wu = w + u * wrow;                                    \
        int32_t* au = acc + u * acc_stride;                                 \
        for (int64_t t0 = 0; t0 < R; t0 += 64) {                            \
            const int64_t n = R - t0 < 64 ? R - t0 : 64;                    \
            int32_t a[64] = {0};                                            \
            for (int64_t c = 0; c < cg; ++c)                                \
                for (int64_t i = 0; i < kh; ++i)                            \
                    for (int64_t j = 0; j < kw; ++j) {                      \
                        const int32_t wv = wu[(i * kw + j) * cq + c];       \
                        const T* restrict s = (const T*)base                \
                            + c * cstep + i * Wp + j + t0;                  \
                        for (int64_t t = 0; t < n; ++t)                     \
                            a[t] += wv * s[t];                              \
                    }                                                       \
            memcpy(au + t0, a, (size_t)n * 4);                              \
        }                                                                   \
    }

void conv_acc_planar(const void* base, int64_t sgn, int64_t cstep,
                     int64_t cg, int64_t kh, int64_t kw, int64_t Wp,
                     const int8_t* w, int64_t wrow, int64_t cq, int64_t ob,
                     int32_t* acc, int64_t acc_stride, int64_t R)
{
    if (sgn) {
        PLANAR_LOOP(int8_t)
    } else {
        PLANAR_LOOP(uint8_t)
    }
}
