//! SimARM assembly implementations of the encoder stages.
//!
//! Every kernel mirrors its counterpart in [`crate::reference`] operation
//! by operation — same fixed-point primitives, same evaluation order — so
//! the ISS output is bit-exact against the reference (verified by the
//! equivalence tests). Buffers hold one `i32` per sample.
//!
//! Calling conventions (all routines follow the standard ABI; `r0..r3`
//! arguments, `r12` scratch, `r4..r11` preserved):
//!
//! | routine | arguments |
//! |---|---|
//! | `g_add`, `g_mult_r` | `r0`, `r1` operands → `r0` |
//! | `g_div15` | `r0` num, `r1` denum → `r0` (Q15) |
//! | `gsm_lcg_frame` | `r0` `out[160]`, `r1` state ptr (1 word) |
//! | `gsm_preprocess` | `r0` `in[160]`, `r1` `out[160]`, `r2` state ptr (2 words) |
//! | `gsm_autocorr` | `r0` `p[160]`, `r1` out `L_ACF[9]`, `r2` `scratch[18]` |
//! | `gsm_schur` | `r0` `L_ACF[9]`, `r1` out `rc[8]`, `r2` `scratch[27]` |
//! | `gsm_lar` | `r0` `rc[8]`, `r1` out `larq[8]` |
//! | `gsm_ltp` | `r0` `sub[40]`, `r1` `prev[120]`, `r2` `out[2]` (nc, bc), `r3` `scratch[160]` |
//! | `gsm_weight` | `r0` `sub[40]`, `r1` out `x[40]`, `r2` `scratch[40]` |
//! | `gsm_rpe` | `r0` `x[40]`, `r1` `out[15]` (grid, exp, `xmc[13]`) |

use dmi_isa::{Asm, Cond, Reg};

const R0: Reg = Reg::R0;
const R1: Reg = Reg::R1;
const R2: Reg = Reg::R2;
const R3: Reg = Reg::R3;
const R4: Reg = Reg::R4;
const R5: Reg = Reg::R5;
const R6: Reg = Reg::R6;
const R7: Reg = Reg::R7;
const R8: Reg = Reg::R8;
const R9: Reg = Reg::R9;
const R10: Reg = Reg::R10;
const R11: Reg = Reg::R11;
const R12: Reg = Reg::R12;
const LR: Reg = Reg::LR;

/// Inline 16-bit saturation of `reg`, clobbering `tmp`.
fn sat16(a: &mut Asm, reg: Reg, tmp: Reg) {
    a.movw(tmp, 32767);
    a.cmp(reg, tmp.into());
    a.mov_cond(Cond::Gt, reg, tmp.into());
    a.movw(tmp, 0x8000);
    a.movt(tmp, 0xFFFF); // -32768
    a.cmp(reg, tmp.into());
    a.mov_cond(Cond::Lt, reg, tmp.into());
}

/// Emits the fixed-point basic-op subroutines.
pub fn emit_basicops(a: &mut Asm) {
    // g_add: r0 = sat16(r0 + r1); clobbers r2.
    a.label("g_add");
    a.add(R0, R0, R1.into());
    sat16(a, R0, R2);
    a.ret();

    // g_mult_r: r0 = sat16((r0*r1 + 16384) >> 15); clobbers r2.
    a.label("g_mult_r");
    a.mul(R0, R0, R1);
    a.movw(R2, 16384);
    a.add(R0, R0, R2.into());
    a.asr(R0, R0, 15);
    sat16(a, R0, R2);
    a.ret();

    // g_div15: restoring 15-step division; clobbers r2, r3.
    a.label("g_div15");
    a.cmp(R0, R1.into());
    a.b_cond(Cond::Lt, "g_div15_go");
    a.movw(R0, 32767); // num == denum (preconditions exclude num > denum)
    a.ret();
    a.label("g_div15_go");
    a.li(R2, 0);
    a.li(R3, 15);
    a.label("g_div15_loop");
    a.lsl(R0, R0, 1);
    a.lsl(R2, R2, 1);
    a.cmp(R0, R1.into());
    a.sub_cond(Cond::Ge, R0, R0, R1.into());
    a.orr_cond(Cond::Ge, R2, R2, 1u32.into());
    a.subs(R3, R3, 1u32.into());
    a.bne("g_div15_loop");
    a.mov(R0, R2.into());
    a.ret();
}

/// Emits `gsm_lcg_frame`: fills 160 words with the synthetic source
/// (`state = state*1103515245 + 12345; sample = ((state>>16) & 0x3FFF) - 8192`).
pub fn emit_lcg_frame(a: &mut Asm) {
    a.label("gsm_lcg_frame");
    a.push(&[R4, R5, R6, LR]);
    a.ldr(R2, R1, 0); // state
    a.li(R3, 160);
    a.li(R12, 1_103_515_245);
    a.label("gsm_lcg_loop");
    a.mul(R2, R2, R12);
    a.movw(R4, 12345);
    a.add(R2, R2, R4.into());
    a.lsr(R5, R2, 16);
    a.movw(R6, 0x3FFF);
    a.and(R5, R5, R6.into());
    a.movw(R6, 8192);
    a.sub(R5, R5, R6.into());
    a.str_post(R5, R0, 4);
    a.subs(R3, R3, 1u32.into());
    a.bne("gsm_lcg_loop");
    a.str(R2, R1, 0);
    a.pop(&[R4, R5, R6, LR]);
    a.ret();
}

/// Emits `gsm_preprocess` (offset compensation + preemphasis).
pub fn emit_preprocess(a: &mut Asm) {
    a.label("gsm_preprocess");
    a.push(&[R4, R5, R6, R7, R8, LR]);
    a.ldr(R4, R2, 0); // prev_s
    a.ldr(R5, R2, 4); // prev_d
    a.li(R6, 160);
    a.label("gsm_pre_loop");
    a.ldr_post(R7, R0, 4); // s
    a.sub(R8, R7, R4.into()); // s - prev_s
    a.movw(R3, 32735);
    a.mul(R12, R3, R5);
    a.asr(R12, R12, 15);
    a.add(R8, R8, R12.into()); // d
    a.movw(R3, 28180);
    a.mul(R12, R3, R5);
    a.asr(R12, R12, 15);
    a.sub(R12, R8, R12.into()); // p = d - (28180*prev_d >> 15)
    a.str_post(R12, R1, 4);
    a.mov(R4, R7.into()); // prev_s = s
    a.mov(R5, R8.into()); // prev_d = d
    a.subs(R6, R6, 1u32.into());
    a.bne("gsm_pre_loop");
    a.str(R4, R2, 0);
    a.str(R5, R2, 4);
    a.pop(&[R4, R5, R6, R7, R8, LR]);
    a.ret();
}

/// Emits `gsm_autocorr` (9 lags, 64-bit accumulation, joint shift).
pub fn emit_autocorr(a: &mut Asm) {
    a.label("gsm_autocorr");
    a.push(&[R4, R5, R6, R7, R8, R9, R10, R11, LR]);
    a.mov(R9, R0.into()); // p base
    a.mov(R10, R1.into()); // out
    a.mov(R11, R2.into()); // scratch (9 x 64-bit)

    // Accumulate S[k] = sum p[i]*p[i-k], i64.
    a.li(R4, 0); // k
    a.label("gsm_ac_k");
    a.li(R5, 0); // acc lo
    a.li(R6, 0); // acc hi
    a.mov(R7, R4.into()); // i = k
    a.label("gsm_ac_i");
    a.li(R12, 160);
    a.cmp(R7, R12.into());
    a.bge("gsm_ac_idone");
    a.lsl(R8, R7, 2);
    a.ldr_r(R0, R9, R8); // p[i]
    a.sub(R8, R7, R4.into());
    a.lsl(R8, R8, 2);
    a.ldr_r(R1, R9, R8); // p[i-k]
    a.smlal(R5, R6, R0, R1);
    a.add(R7, R7, 1u32.into());
    a.b("gsm_ac_i");
    a.label("gsm_ac_idone");
    a.lsl(R8, R4, 3);
    a.add(R8, R11, R8.into());
    a.str(R5, R8, 0);
    a.str(R6, R8, 4);
    a.add(R4, R4, 1u32.into());
    a.cmp(R4, 9u32.into());
    a.blt("gsm_ac_k");

    // sh = max(0, bits64(S[0]) - 31).
    a.ldr(R5, R11, 0);
    a.ldr(R6, R11, 4);
    a.cmp(R6, 0u32.into());
    a.bne("gsm_ac_hibits");
    a.clz(R7, R5);
    a.rsb(R7, R7, 32u32.into()); // bits = 32 - clz(lo)
    a.b("gsm_ac_sh");
    a.label("gsm_ac_hibits");
    a.clz(R7, R6);
    a.rsb(R7, R7, 64u32.into()); // bits = 64 - clz(hi)
    a.label("gsm_ac_sh");
    a.subs(R7, R7, 31u32.into());
    a.mov_cond(Cond::Lt, R7, 0u32.into()); // sh in r7 (0..=8 in practice)

    // Emit L_ACF[k] = (S[k] >> sh) as i32 (shift by repeated >>1).
    a.li(R4, 0);
    a.label("gsm_ac_emit");
    a.lsl(R8, R4, 3);
    a.add(R8, R11, R8.into());
    a.ldr(R5, R8, 0); // lo
    a.ldr(R6, R8, 4); // hi
    a.mov(R12, R7.into()); // shift counter
    a.label("gsm_ac_shift");
    a.cmp(R12, 0u32.into());
    a.beq("gsm_ac_store");
    a.lsr(R5, R5, 1);
    a.lsl(R0, R6, 31);
    a.orr(R5, R5, R0.into());
    a.asr(R6, R6, 1);
    a.sub(R12, R12, 1u32.into());
    a.b("gsm_ac_shift");
    a.label("gsm_ac_store");
    a.lsl(R8, R4, 2);
    a.str_r(R5, R10, R8);
    a.add(R4, R4, 1u32.into());
    a.cmp(R4, 9u32.into());
    a.blt("gsm_ac_emit");

    a.pop(&[R4, R5, R6, R7, R8, R9, R10, R11, LR]);
    a.ret();
}

/// Emits `gsm_schur` (reflection coefficients).
///
/// Scratch layout (words): `ACF[0..9]` at +0, `P[0..9]` at +36, `K[0..9]`
/// at +72 (`K[0]` unused).
pub fn emit_schur(a: &mut Asm) {
    a.label("gsm_schur");
    a.push(&[R4, R5, R6, R7, R8, R9, R10, R11, LR]);
    a.mov(R9, R0.into()); // L_ACF
    a.mov(R10, R1.into()); // out rc
    a.mov(R11, R2.into()); // scratch

    // Pre-zero the output (early-exit paths leave zeros).
    a.li(R4, 0);
    a.li(R5, 8);
    a.mov(R6, R10.into());
    a.label("gsm_sc_zero");
    a.str_post(R4, R6, 4);
    a.subs(R5, R5, 1u32.into());
    a.bne("gsm_sc_zero");

    a.ldr(R0, R9, 0);
    a.cmp(R0, 0u32.into());
    a.beq("gsm_sc_done");

    // temp = norm(L_ACF[0]) = clz - 1.
    a.clz(R4, R0);
    a.sub(R4, R4, 1u32.into());

    // ACF[i] = (L_ACF[i] << temp) >> 16; P[i] = ACF[i]; K[i] = ACF[i].
    a.li(R5, 0);
    a.label("gsm_sc_norm");
    a.lsl(R6, R5, 2);
    a.ldr_r(R0, R9, R6);
    a.mov(R7, R4.into());
    a.label("gsm_sc_shl");
    a.cmp(R7, 0u32.into());
    a.beq("gsm_sc_shld");
    a.lsl(R0, R0, 1);
    a.subs(R7, R7, 1u32.into());
    a.b("gsm_sc_shl");
    a.label("gsm_sc_shld");
    a.asr(R0, R0, 16);
    a.add(R8, R11, R6.into());
    a.str(R0, R8, 0); // ACF
    a.str(R0, R8, 36); // P
    a.str(R0, R8, 72); // K
    a.add(R5, R5, 1u32.into());
    a.cmp(R5, 9u32.into());
    a.blt("gsm_sc_norm");

    // Recursion over n = 0..7.
    a.li(R4, 0);
    a.label("gsm_sc_n");
    // t = abs_s(P[1]).
    a.ldr(R0, R11, 40);
    a.cmp(R0, 0u32.into());
    a.rsb_cond(Cond::Lt, R0, R0, 0u32.into());
    sat16(a, R0, R2);
    a.mov(R5, R0.into());
    a.ldr(R6, R11, 36); // P[0]
    a.cmp(R6, R5.into());
    a.blt("gsm_sc_done"); // unstable: remaining rc stay zero
    // rc = ±div(t, P[0])
    a.mov(R0, R5.into());
    a.mov(R1, R6.into());
    a.bl("g_div15");
    a.ldr(R1, R11, 40);
    a.cmp(R1, 0u32.into());
    a.rsb_cond(Cond::Gt, R0, R0, 0u32.into());
    a.lsl(R6, R4, 2);
    a.str_r(R0, R10, R6);
    a.mov(R8, R0.into()); // rc
    a.cmp(R4, 7u32.into());
    a.beq("gsm_sc_done");
    // P[0] = add(P[0], mult_r(P[1], rc)).
    a.ldr(R0, R11, 40);
    a.mov(R1, R8.into());
    a.bl("g_mult_r");
    a.mov(R1, R0.into());
    a.ldr(R0, R11, 36);
    a.bl("g_add");
    a.str(R0, R11, 36);
    // for m in 1..=7-n.
    a.li(R5, 1);
    a.label("gsm_sc_m");
    a.rsb(R6, R4, 7u32.into());
    a.cmp(R5, R6.into());
    a.bgt("gsm_sc_mdone");
    a.lsl(R7, R5, 2);
    a.add(R7, R11, R7.into()); // r7 = scratch + 4m
    // newP = add(P[m+1], mult_r(K[m], rc))
    a.ldr(R0, R7, 72);
    a.mov(R1, R8.into());
    a.bl("g_mult_r");
    a.ldr(R1, R7, 40);
    a.bl("g_add");
    a.mov(R9, R0.into()); // newP (r9 free after norm phase)
    // K[m] = add(K[m], mult_r(P[m+1], rc))
    a.ldr(R0, R7, 40);
    a.mov(R1, R8.into());
    a.bl("g_mult_r");
    a.ldr(R1, R7, 72);
    a.bl("g_add");
    a.str(R0, R7, 72);
    a.str(R9, R7, 36); // P[m] = newP
    a.add(R5, R5, 1u32.into());
    a.b("gsm_sc_m");
    a.label("gsm_sc_mdone");
    a.add(R4, R4, 1u32.into());
    a.cmp(R4, 8u32.into());
    a.blt("gsm_sc_n");
    a.label("gsm_sc_done");
    a.pop(&[R4, R5, R6, R7, R8, R9, R10, R11, LR]);
    a.ret();
}

/// Emits `gsm_lar` (rc → LAR companding + 6-bit quantization).
pub fn emit_lar(a: &mut Asm) {
    a.label("gsm_lar");
    a.push(&[R4, R5, R6, R7, LR]);
    a.li(R4, 8);
    a.label("gsm_lar_loop");
    a.ldr_post(R5, R0, 4); // rc
    // t = abs_s(rc)
    a.mov(R6, R5.into());
    a.cmp(R6, 0u32.into());
    a.rsb_cond(Cond::Lt, R6, R6, 0u32.into());
    sat16(a, R6, R7);
    // piecewise companding
    a.movw(R7, 22118);
    a.cmp(R6, R7.into());
    a.bge("gsm_lar_mid");
    a.asr(R6, R6, 1);
    a.b("gsm_lar_sign");
    a.label("gsm_lar_mid");
    a.movw(R7, 31130);
    a.cmp(R6, R7.into());
    a.bge("gsm_lar_hi");
    a.movw(R7, 11059);
    a.sub(R6, R6, R7.into());
    a.b("gsm_lar_sign");
    a.label("gsm_lar_hi");
    a.movw(R7, 26112);
    a.sub(R6, R6, R7.into());
    a.lsl(R6, R6, 2);
    a.label("gsm_lar_sign");
    a.cmp(R5, 0u32.into());
    a.rsb_cond(Cond::Lt, R6, R6, 0u32.into());
    // quantize: clamp(lar >> 9, -32, 31)
    a.asr(R6, R6, 9);
    a.li(R7, 31);
    a.cmp(R6, R7.into());
    a.mov_cond(Cond::Gt, R6, R7.into());
    a.li(R7, 0xFFFF_FFE0); // -32
    a.cmp(R6, R7.into());
    a.mov_cond(Cond::Lt, R6, R7.into());
    a.str_post(R6, R1, 4);
    a.subs(R4, R4, 1u32.into());
    a.bne("gsm_lar_loop");
    a.pop(&[R4, R5, R6, R7, LR]);
    a.ret();
}

/// Emits `gsm_ltp` (lag search + gain ladder).
///
/// Scratch layout: `wt[0..40]` at +0, `dq[0..120]` at +160 bytes.
pub fn emit_ltp(a: &mut Asm) {
    a.label("gsm_ltp");
    a.push(&[R4, R5, R6, R7, R8, R9, R10, R11, LR]);
    a.mov(R9, R0.into()); // sub
    a.mov(R10, R1.into()); // prev
    a.mov(R11, R3.into()); // scratch
    // r2 (out) stays live: no subroutine calls below.

    // wt[k] = sub[k] >> 3
    a.li(R4, 40);
    a.mov(R5, R9.into());
    a.mov(R6, R11.into());
    a.label("gsm_ltp_wt");
    a.ldr_post(R7, R5, 4);
    a.asr(R7, R7, 3);
    a.str_post(R7, R6, 4);
    a.subs(R4, R4, 1u32.into());
    a.bne("gsm_ltp_wt");
    // dq[j] = prev[j] >> 3 at scratch + 160
    a.li(R4, 120);
    a.mov(R5, R10.into());
    a.add(R6, R11, 160u32.into());
    a.label("gsm_ltp_dq");
    a.ldr_post(R7, R5, 4);
    a.asr(R7, R7, 3);
    a.str_post(R7, R6, 4);
    a.subs(R4, R4, 1u32.into());
    a.bne("gsm_ltp_dq");

    // Lag search.
    a.li(R4, 40); // lambda
    a.li(R5, 0x8000_0000); // l_max = i32::MIN
    a.li(R6, 40); // best lag
    a.label("gsm_ltp_lam");
    // dq base for this lambda: scratch + 160 + (120 - lambda)*4
    //                        = scratch + 640 - 4*lambda
    a.add(R0, R11, 640u32.into());
    a.lsl(R1, R4, 2);
    a.sub(R0, R0, R1.into());
    a.mov(R1, R11.into()); // wt cursor
    a.li(R7, 0); // acc
    a.li(R8, 40); // k counter
    a.label("gsm_ltp_k");
    a.ldr_post(R3, R1, 4);
    a.ldr_post(R12, R0, 4);
    a.mul(R3, R3, R12);
    a.add(R7, R7, R3.into());
    a.subs(R8, R8, 1u32.into());
    a.bne("gsm_ltp_k");
    a.cmp(R7, R5.into());
    a.mov_cond(Cond::Gt, R5, R7.into());
    a.mov_cond(Cond::Gt, R6, R4.into());
    a.add(R4, R4, 1u32.into());
    a.li(R12, 120);
    a.cmp(R4, R12.into());
    a.ble("gsm_ltp_lam");

    // Energy at the winning lag.
    a.add(R0, R11, 640u32.into());
    a.lsl(R1, R6, 2);
    a.sub(R0, R0, R1.into());
    a.li(R7, 0);
    a.li(R8, 40);
    a.label("gsm_ltp_e");
    a.ldr_post(R3, R0, 4);
    a.mul(R3, R3, R3);
    a.add(R7, R7, R3.into());
    a.subs(R8, R8, 1u32.into());
    a.bne("gsm_ltp_e");

    // Gain ladder.
    a.cmp(R5, 0u32.into());
    a.ble("gsm_ltp_bc0");
    a.asr(R1, R7, 2);
    a.cmp(R5, R1.into());
    a.blt("gsm_ltp_bc0");
    a.asr(R1, R7, 1);
    a.cmp(R5, R1.into());
    a.blt("gsm_ltp_bc1");
    a.asr(R1, R7, 2);
    a.sub(R1, R7, R1.into());
    a.cmp(R5, R1.into());
    a.blt("gsm_ltp_bc2");
    a.li(R0, 3);
    a.b("gsm_ltp_store");
    a.label("gsm_ltp_bc0");
    a.li(R0, 0);
    a.b("gsm_ltp_store");
    a.label("gsm_ltp_bc1");
    a.li(R0, 1);
    a.b("gsm_ltp_store");
    a.label("gsm_ltp_bc2");
    a.li(R0, 2);
    a.label("gsm_ltp_store");
    a.str(R6, R2, 0); // nc
    a.str(R0, R2, 4); // bc
    a.pop(&[R4, R5, R6, R7, R8, R9, R10, R11, LR]);
    a.ret();
}

/// Emits `gsm_weight` (11-tap FIR with zero padding) and its coefficient
/// table (`gsm_h_tab`).
pub fn emit_weight(a: &mut Asm) {
    a.label("gsm_weight");
    a.push(&[R4, R5, R6, R7, R8, R9, R10, R11, LR]);
    a.mov(R9, R0.into()); // sub
    a.mov(R10, R1.into()); // out
    a.mov(R11, R2.into()); // scratch e[40]
    // e[k] = sub[k] >> 2
    a.li(R4, 40);
    a.mov(R5, R9.into());
    a.mov(R6, R11.into());
    a.label("gsm_wt_e");
    a.ldr_post(R7, R5, 4);
    a.asr(R7, R7, 2);
    a.str_post(R7, R6, 4);
    a.subs(R4, R4, 1u32.into());
    a.bne("gsm_wt_e");
    // x[k] = (4096 + sum_{i} H[i]*e[k+5-i]) >> 13
    a.li(R4, 0); // k
    a.label("gsm_wt_k");
    a.movw(R7, 4096); // acc
    a.li(R5, 0); // i
    a.adr(R8, "gsm_h_tab");
    a.label("gsm_wt_i");
    // idx = k + 5 - i
    a.add(R6, R4, 5u32.into());
    a.sub(R6, R6, R5.into());
    a.cmp(R6, 0u32.into());
    a.blt("gsm_wt_skip");
    a.li(R12, 40);
    a.cmp(R6, R12.into());
    a.bge("gsm_wt_skip");
    a.lsl(R6, R6, 2);
    a.ldr_r(R0, R11, R6); // e[idx]
    a.lsl(R6, R5, 2);
    a.ldr_r(R1, R8, R6); // H[i]
    a.mul(R0, R0, R1);
    a.add(R7, R7, R0.into());
    a.label("gsm_wt_skip");
    a.add(R5, R5, 1u32.into());
    a.cmp(R5, 11u32.into());
    a.blt("gsm_wt_i");
    a.asr(R7, R7, 13);
    a.lsl(R6, R4, 2);
    a.str_r(R7, R10, R6);
    a.add(R4, R4, 1u32.into());
    a.li(R12, 40);
    a.cmp(R4, R12.into());
    a.blt("gsm_wt_k");
    a.pop(&[R4, R5, R6, R7, R8, R9, R10, R11, LR]);
    a.ret();

    a.label("gsm_h_tab");
    for h in crate::reference::WEIGHT_H {
        a.word(h as u32);
    }
}

/// Emits `gsm_rpe` (grid selection + APCM): output `[grid, exp, xmc[13]]`.
pub fn emit_rpe(a: &mut Asm) {
    a.label("gsm_rpe");
    a.push(&[R4, R5, R6, R7, R8, R9, R10, LR]);
    a.mov(R9, R0.into()); // x
    a.mov(R10, R1.into()); // out
    // Grid selection: argmax energy over m = 0..3.
    a.li(R4, 0); // m
    a.li(R5, 0x8000_0000); // best energy
    a.li(R6, 0); // best m
    a.label("gsm_rpe_m");
    a.li(R7, 0); // energy
    a.li(R8, 0); // i
    a.label("gsm_rpe_me");
    // idx = m + 3*i
    a.li(R12, 3);
    a.mul(R0, R8, R12);
    a.add(R0, R0, R4.into());
    a.lsl(R0, R0, 2);
    a.ldr_r(R1, R9, R0);
    a.mul(R1, R1, R1);
    a.add(R7, R7, R1.into());
    a.add(R8, R8, 1u32.into());
    a.cmp(R8, 13u32.into());
    a.blt("gsm_rpe_me");
    a.cmp(R7, R5.into());
    a.mov_cond(Cond::Gt, R5, R7.into());
    a.mov_cond(Cond::Gt, R6, R4.into());
    a.add(R4, R4, 1u32.into());
    a.cmp(R4, 4u32.into());
    a.blt("gsm_rpe_m");
    a.str(R6, R10, 0); // grid

    // xmax = max |x[m + 3i]| (16-bit saturated abs).
    a.li(R5, 0); // xmax
    a.li(R8, 0); // i
    a.label("gsm_rpe_max");
    a.li(R12, 3);
    a.mul(R0, R8, R12);
    a.add(R0, R0, R6.into());
    a.lsl(R0, R0, 2);
    a.ldr_r(R1, R9, R0);
    a.cmp(R1, 0u32.into());
    a.rsb_cond(Cond::Lt, R1, R1, 0u32.into());
    sat16(a, R1, R2);
    a.cmp(R1, R5.into());
    a.mov_cond(Cond::Gt, R5, R1.into());
    a.add(R8, R8, 1u32.into());
    a.cmp(R8, 13u32.into());
    a.blt("gsm_rpe_max");

    // exp = max(0, bits(xmax) - 3); bits(0) = 0.
    a.cmp(R5, 0u32.into());
    a.li(R7, 0);
    a.beq("gsm_rpe_exp_done");
    a.clz(R7, R5);
    a.rsb(R7, R7, 32u32.into()); // bits
    a.subs(R7, R7, 3u32.into());
    a.mov_cond(Cond::Lt, R7, 0u32.into());
    a.label("gsm_rpe_exp_done");
    a.str(R7, R10, 4); // exp

    // xmc[i] = clamp(x[m+3i] >> exp, -4, 3) + 4 (variable shift by loop).
    a.li(R8, 0);
    a.label("gsm_rpe_q");
    a.li(R12, 3);
    a.mul(R0, R8, R12);
    a.add(R0, R0, R6.into());
    a.lsl(R0, R0, 2);
    a.ldr_r(R1, R9, R0);
    a.mov(R2, R7.into()); // shift count
    a.label("gsm_rpe_shr");
    a.cmp(R2, 0u32.into());
    a.beq("gsm_rpe_clamp");
    a.asr(R1, R1, 1);
    a.sub(R2, R2, 1u32.into());
    a.b("gsm_rpe_shr");
    a.label("gsm_rpe_clamp");
    a.li(R2, 3);
    a.cmp(R1, R2.into());
    a.mov_cond(Cond::Gt, R1, R2.into());
    a.li(R2, 0xFFFF_FFFC); // -4
    a.cmp(R1, R2.into());
    a.mov_cond(Cond::Lt, R1, R2.into());
    a.add(R1, R1, 4u32.into());
    // out[2 + i]
    a.add(R0, R8, 2u32.into());
    a.lsl(R0, R0, 2);
    a.str_r(R1, R10, R0);
    a.add(R8, R8, 1u32.into());
    a.cmp(R8, 13u32.into());
    a.blt("gsm_rpe_q");
    a.pop(&[R4, R5, R6, R7, R8, R9, R10, LR]);
    a.ret();
}

/// Emits every GSM kernel plus the basic ops (one-stop helper).
pub fn emit_all_kernels(a: &mut Asm) {
    emit_basicops(a);
    emit_lcg_frame(a);
    emit_preprocess(a);
    emit_autocorr(a);
    emit_schur(a);
    emit_lar(a);
    emit_ltp(a);
    emit_weight(a);
    emit_rpe(a);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_assemble_and_decode() {
        let mut a = Asm::new();
        a.swi(0);
        emit_all_kernels(&mut a);
        let p = a.assemble(0).unwrap();
        for sym in [
            "g_add",
            "g_mult_r",
            "g_div15",
            "gsm_lcg_frame",
            "gsm_preprocess",
            "gsm_autocorr",
            "gsm_schur",
            "gsm_lar",
            "gsm_ltp",
            "gsm_weight",
            "gsm_rpe",
        ] {
            assert!(p.symbol(sym).is_some(), "missing {sym}");
        }
        // All words decode except the coefficient table.
        let tab = (p.symbol("gsm_h_tab").unwrap() / 4) as usize;
        for (i, w) in p.words().iter().enumerate() {
            if (tab..tab + 11).contains(&i) {
                continue;
            }
            assert!(
                dmi_isa::decode(*w).is_ok(),
                "word {i} ({w:#010x}) does not decode"
            );
        }
    }
}
