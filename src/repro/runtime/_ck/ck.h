#ifndef REPRO_CK_H
#define REPRO_CK_H
#include <stdint.h>

/* Shared declarations of the native conv kernel's translation units. */

/* register / accumulator element types (ckernel.REG_TYPES order) */
enum { CK_U8 = 0, CK_I8 = 1, CK_I16 = 2, CK_I32 = 3, CK_F32 = 4 };

/* one output channel's requant constants, plus the fused residual tail's
 * (shortcut requant when has_smq, then the residual merge) */
typedef struct {
    double mo, bo, lo, hi;
    int64_t has_smq;
    double smo, sbo, slo, shi;
    double rs, rlo, rhi;
} ck_requant;

/* conv_acc.c */
int64_t conv_isa(void);
void conv_acc_words(const int32_t* base, const int64_t* offs,
                    const int32_t* w, int64_t K, int64_t wstride, int64_t ob,
                    const int32_t* corr, int32_t* acc, int64_t acc_stride,
                    int64_t R);
void conv_acc_planar(const void* base, int64_t sgn, int64_t cstep,
                     int64_t cg, int64_t kh, int64_t kw, int64_t Wp,
                     const int8_t* w, int64_t wrow, int64_t cq, int64_t ob,
                     int32_t* acc, int64_t acc_stride, int64_t R);
void conv_interleave(const uint8_t* src, int64_t cstep, int64_t cg,
                     int64_t sgn, int64_t len, int32_t* dst, int64_t dstep);

/* requant.c */
void conv_valid_pattern(uint8_t* pat, int64_t Hq, int64_t Wq, int64_t OH,
                        int64_t OW);
void conv_epilogue(const int32_t* acc, int64_t nbk, int64_t splane,
                   int64_t Hp, int64_t Wp, int64_t stride,
                   void* Q, int64_t qty, int64_t o, int64_t n0, int64_t N,
                   int64_t Hq, int64_t Wq, int64_t out_off,
                   int64_t OH, int64_t OW, const uint8_t* pat,
                   const void* S, int64_t sty, int64_t Hs, int64_t Ws,
                   int64_t s_off, const ck_requant* rq);

#endif
