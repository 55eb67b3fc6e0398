//! Runtime-dispatched SIMD primitives for the embedding/MLP hot loops.
//!
//! Every serving-path inner loop — the matmul axpy, the kernel's
//! row accumulation, `gather_combine`'s little-endian partial-sum adds
//! and the dequant-on-gather fuse — funnels through the handful of
//! primitives in this module. Each primitive picks an implementation
//! once per process from the CPU's capabilities:
//!
//! * **x86_64** — AVX-512 when `is_x86_feature_detected!("avx512f")`
//!   says so, else AVX2 when `is_x86_feature_detected!("avx2")` says
//!   so, otherwise SSE2 (part of the x86_64 baseline, always
//!   available);
//! * **aarch64** — NEON (part of the aarch64 baseline);
//! * anything else, or `UPDLRM_FORCE_SCALAR=1` in the environment — the
//!   scalar reference loops.
//!
//! **Bit-exactness contract.** All primitives are elementwise: lane `i`
//! of the output depends only on lane `i` of the inputs, and every
//! implementation performs the *same* sequence of IEEE-754 single
//! operations per lane (multiply, then add — never a fused
//! multiply-add, which skips the intermediate rounding). Vectorizing
//! therefore changes nothing about the results: scalar and SIMD are
//! bit-identical on every input, which the differential tests in this
//! module and in every caller pin down. That is also why the dispatch
//! tier is *not* recorded in any modeled output — only wall-clock
//! speed changes with the tier.

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set tier a primitive dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// Scalar reference loops (fallback, or forced via
    /// `UPDLRM_FORCE_SCALAR=1`).
    Scalar,
    /// 128-bit SSE2 (x86_64 baseline).
    Sse2,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512 (F subset only — no masked tails, the AVX2
    /// implementations handle remainders).
    Avx512,
    /// 128-bit NEON (aarch64 baseline).
    Neon,
}

impl SimdTier {
    /// Stable lower-case name, recorded in bench rows
    /// (`"avx512" | "avx2" | "sse2" | "neon" | "scalar"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
            SimdTier::Neon => "neon",
        }
    }
}

/// Cached tier: 0 = undetected, else `SimdTier as u8 + 1`.
static TIER: AtomicU8 = AtomicU8::new(0);

fn detect() -> SimdTier {
    if std::env::var_os("UPDLRM_FORCE_SCALAR").is_some_and(|v| v == "1") {
        return SimdTier::Scalar;
    }
    detect_capability()
}

fn decode(v: u8) -> SimdTier {
    match v {
        2 => SimdTier::Sse2,
        3 => SimdTier::Avx2,
        4 => SimdTier::Avx512,
        5 => SimdTier::Neon,
        _ => SimdTier::Scalar,
    }
}

/// The tier every primitive currently dispatches to (detected once,
/// then cached; honors `UPDLRM_FORCE_SCALAR=1` at first use).
#[inline]
pub fn tier() -> SimdTier {
    match TIER.load(Ordering::Relaxed) {
        0 => {
            let t = detect();
            TIER.store(t as u8 + 1, Ordering::Relaxed);
            t
        }
        v => decode(v - 1),
    }
}

/// Stable name of the active tier (see [`SimdTier::as_str`]).
pub fn tier_name() -> &'static str {
    tier().as_str()
}

/// Overrides the dispatch tier for differential testing and in-bench
/// scalar/SIMD identity checks. `Some(t)` forces `t` (requests above
/// the machine's capability fall back to scalar rather than faulting);
/// `None` re-runs detection. Not intended for production use — the
/// detected tier is always correct.
pub fn force_tier(t: Option<SimdTier>) {
    let t = match t {
        Some(want) => {
            let have = detect_capability();
            if tier_supported(want, have) {
                want
            } else {
                SimdTier::Scalar
            }
        }
        None => detect(),
    };
    TIER.store(t as u8 + 1, Ordering::Relaxed);
}

/// Detection ignoring the `UPDLRM_FORCE_SCALAR` override: what the CPU
/// can actually execute.
fn detect_capability() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        // The 512-bit tier tails into the AVX2 implementations, so it
        // needs both features (every real AVX-512F part has AVX2).
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            SimdTier::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            SimdTier::Avx2
        } else {
            SimdTier::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdTier::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdTier::Scalar
    }
}

fn tier_supported(want: SimdTier, have: SimdTier) -> bool {
    match want {
        SimdTier::Scalar => true,
        SimdTier::Sse2 => matches!(have, SimdTier::Sse2 | SimdTier::Avx2 | SimdTier::Avx512),
        SimdTier::Avx2 => matches!(have, SimdTier::Avx2 | SimdTier::Avx512),
        SimdTier::Avx512 => have == SimdTier::Avx512,
        SimdTier::Neon => have == SimdTier::Neon,
    }
}

/// The dispatch tier is process-global, so tests anywhere in this
/// crate that override it with [`force_tier`] serialize on this lock.
/// Continuing past a poisoned lock is fine: every user restores
/// detection before releasing.
#[cfg(test)]
pub(crate) fn test_tier_lock() -> std::sync::MutexGuard<'static, ()> {
    static TIER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TIER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Scalar reference implementations. These define the semantics; every
// SIMD variant must match them bit-for-bit.
// ---------------------------------------------------------------------------

mod scalar {
    #[inline]
    pub fn add_assign(out: &mut [f32], x: &[f32]) {
        for (o, &v) in out.iter_mut().zip(x.iter()) {
            *o += v;
        }
    }

    #[inline]
    pub fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
        for (o, &v) in out.iter_mut().zip(x.iter()) {
            *o += a * v;
        }
    }

    #[inline]
    pub fn add_assign_le(out: &mut [f32], bytes: &[u8]) {
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o += f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
    }

    #[inline]
    pub fn add_assign_into_le(dst: &mut [u8], add: &[f32]) {
        for (d, &v) in dst.chunks_exact_mut(4).zip(add.iter()) {
            let cur = f32::from_le_bytes([d[0], d[1], d[2], d[3]]);
            d.copy_from_slice(&(cur + v).to_le_bytes());
        }
    }

    #[inline]
    pub fn add_assign_dequant_u8(out: &mut [f32], q: &[u8], scale: f32, min: f32) {
        for (o, &b) in out.iter_mut().zip(q.iter()) {
            *o += min + scale * b as f32;
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64: SSE2 (baseline, safe to call unconditionally) and AVX2
// (runtime-gated). Loads/stores are unaligned variants throughout; the
// byte-slice entry points reinterpret little-endian f32 bytes, which on
// this (little-endian) architecture is exactly `from_le_bytes`.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::RowOffset;
    use std::arch::x86_64::*;

    #[inline]
    pub fn add_assign_sse2(out: &mut [f32], x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        unsafe {
            while i + 4 <= n {
                let o = _mm_loadu_ps(out.as_ptr().add(i));
                let v = _mm_loadu_ps(x.as_ptr().add(i));
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_add_ps(o, v));
                i += 4;
            }
        }
        super::scalar::add_assign(&mut out[i..n], &x[i..n]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_avx2(out: &mut [f32], x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        while i + 8 <= n {
            let o = _mm256_loadu_ps(out.as_ptr().add(i));
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(o, v));
            i += 8;
        }
        add_assign_sse2(&mut out[i..n], &x[i..n]);
    }

    #[inline]
    pub fn axpy_sse2(out: &mut [f32], a: f32, x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        unsafe {
            let av = _mm_set1_ps(a);
            while i + 4 <= n {
                let o = _mm_loadu_ps(out.as_ptr().add(i));
                let v = _mm_loadu_ps(x.as_ptr().add(i));
                // Multiply then add — no FMA, so each lane rounds
                // exactly like the scalar `o + a * v`.
                let p = _mm_mul_ps(av, v);
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_add_ps(o, p));
                i += 4;
            }
        }
        super::scalar::axpy(&mut out[i..n], a, &x[i..n]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(out: &mut [f32], a: f32, x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        let av = _mm256_set1_ps(a);
        while i + 8 <= n {
            let o = _mm256_loadu_ps(out.as_ptr().add(i));
            let v = _mm256_loadu_ps(x.as_ptr().add(i));
            let p = _mm256_mul_ps(av, v);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(o, p));
            i += 8;
        }
        axpy_sse2(&mut out[i..n], a, &x[i..n]);
    }

    #[inline]
    pub fn add_assign_le_sse2(out: &mut [f32], bytes: &[u8]) {
        let n = out.len().min(bytes.len() / 4);
        let mut i = 0;
        unsafe {
            while i + 4 <= n {
                let o = _mm_loadu_ps(out.as_ptr().add(i));
                let v = _mm_loadu_ps(bytes.as_ptr().add(i * 4).cast::<f32>());
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_add_ps(o, v));
                i += 4;
            }
        }
        super::scalar::add_assign_le(&mut out[i..n], &bytes[i * 4..n * 4]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_le_avx2(out: &mut [f32], bytes: &[u8]) {
        let n = out.len().min(bytes.len() / 4);
        let mut i = 0;
        while i + 8 <= n {
            let o = _mm256_loadu_ps(out.as_ptr().add(i));
            let v = _mm256_loadu_ps(bytes.as_ptr().add(i * 4).cast::<f32>());
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(o, v));
            i += 8;
        }
        add_assign_le_sse2(&mut out[i..n], &bytes[i * 4..n * 4]);
    }

    #[inline]
    pub fn add_assign_into_le_sse2(dst: &mut [u8], add: &[f32]) {
        let n = add.len().min(dst.len() / 4);
        let mut i = 0;
        unsafe {
            while i + 4 <= n {
                let cur = _mm_loadu_ps(dst.as_ptr().add(i * 4).cast::<f32>());
                let v = _mm_loadu_ps(add.as_ptr().add(i));
                _mm_storeu_ps(
                    dst.as_mut_ptr().add(i * 4).cast::<f32>(),
                    _mm_add_ps(cur, v),
                );
                i += 4;
            }
        }
        super::scalar::add_assign_into_le(&mut dst[i * 4..n * 4], &add[i..n]);
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_into_le_avx2(dst: &mut [u8], add: &[f32]) {
        let n = add.len().min(dst.len() / 4);
        let mut i = 0;
        while i + 8 <= n {
            let cur = _mm256_loadu_ps(dst.as_ptr().add(i * 4).cast::<f32>());
            let v = _mm256_loadu_ps(add.as_ptr().add(i));
            _mm256_storeu_ps(
                dst.as_mut_ptr().add(i * 4).cast::<f32>(),
                _mm256_add_ps(cur, v),
            );
            i += 8;
        }
        add_assign_into_le_sse2(&mut dst[i * 4..n * 4], &add[i..n]);
    }

    #[inline]
    pub fn add_assign_dequant_u8_sse2(out: &mut [f32], q: &[u8], scale: f32, min: f32) {
        let n = out.len().min(q.len());
        let mut i = 0;
        unsafe {
            let sv = _mm_set1_ps(scale);
            let mv = _mm_set1_ps(min);
            let zero = _mm_setzero_si128();
            while i + 4 <= n {
                // Widen 4 u8 lanes to i32 (SSE2: zero-extend in two
                // unpack steps), convert to f32, then min + scale * q
                // in the exact scalar op order.
                let raw =
                    _mm_cvtsi32_si128(i32::from_le_bytes([q[i], q[i + 1], q[i + 2], q[i + 3]]));
                let w16 = _mm_unpacklo_epi8(raw, zero);
                let w32 = _mm_unpacklo_epi16(w16, zero);
                let f = _mm_cvtepi32_ps(w32);
                let t = _mm_add_ps(mv, _mm_mul_ps(sv, f));
                let o = _mm_loadu_ps(out.as_ptr().add(i));
                _mm_storeu_ps(out.as_mut_ptr().add(i), _mm_add_ps(o, t));
                i += 4;
            }
        }
        super::scalar::add_assign_dequant_u8(&mut out[i..n], &q[i..n], scale, min);
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_dequant_u8_avx2(out: &mut [f32], q: &[u8], scale: f32, min: f32) {
        let n = out.len().min(q.len());
        let mut i = 0;
        let sv = _mm256_set1_ps(scale);
        let mv = _mm256_set1_ps(min);
        while i + 8 <= n {
            let raw = _mm_loadl_epi64(q.as_ptr().add(i).cast::<__m128i>());
            let w32 = _mm256_cvtepu8_epi32(raw);
            let f = _mm256_cvtepi32_ps(w32);
            let t = _mm256_add_ps(mv, _mm256_mul_ps(sv, f));
            let o = _mm256_loadu_ps(out.as_ptr().add(i));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_add_ps(o, t));
            i += 8;
        }
        add_assign_dequant_u8_sse2(&mut out[i..n], &q[i..n], scale, min);
    }

    // 512-bit variants (AVX-512F). `vaddps`/`vmulps` on zmm registers
    // are the same per-lane IEEE single operations as their xmm/ymm
    // forms, so these remain bit-identical to the scalar reference.
    // Tails (< 16 lanes) fall through to the AVX2 implementations —
    // the functions enable both features so those calls are direct.

    /// # Safety
    /// Caller must have verified AVX-512F (and AVX2) support at runtime.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn add_assign_avx512(out: &mut [f32], x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        while i + 16 <= n {
            let o = _mm512_loadu_ps(out.as_ptr().add(i));
            let v = _mm512_loadu_ps(x.as_ptr().add(i));
            _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_add_ps(o, v));
            i += 16;
        }
        add_assign_avx2(&mut out[i..n], &x[i..n]);
    }

    /// # Safety
    /// Caller must have verified AVX-512F (and AVX2) support at runtime.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn axpy_avx512(out: &mut [f32], a: f32, x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        let av = _mm512_set1_ps(a);
        while i + 16 <= n {
            let o = _mm512_loadu_ps(out.as_ptr().add(i));
            let v = _mm512_loadu_ps(x.as_ptr().add(i));
            // Multiply then add — no FMA, matching the scalar rounding.
            let p = _mm512_mul_ps(av, v);
            _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_add_ps(o, p));
            i += 16;
        }
        axpy_avx2(&mut out[i..n], a, &x[i..n]);
    }

    /// # Safety
    /// Caller must have verified AVX-512F (and AVX2) support at runtime.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn add_assign_le_avx512(out: &mut [f32], bytes: &[u8]) {
        let n = out.len().min(bytes.len() / 4);
        let mut i = 0;
        while i + 16 <= n {
            let o = _mm512_loadu_ps(out.as_ptr().add(i));
            let v = _mm512_loadu_ps(bytes.as_ptr().add(i * 4).cast::<f32>());
            _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_add_ps(o, v));
            i += 16;
        }
        add_assign_le_avx2(&mut out[i..n], &bytes[i * 4..n * 4]);
    }

    /// # Safety
    /// Caller must have verified AVX-512F (and AVX2) support at runtime.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn add_assign_into_le_avx512(dst: &mut [u8], add: &[f32]) {
        let n = add.len().min(dst.len() / 4);
        let mut i = 0;
        while i + 16 <= n {
            let cur = _mm512_loadu_ps(dst.as_ptr().add(i * 4).cast::<f32>());
            let v = _mm512_loadu_ps(add.as_ptr().add(i));
            _mm512_storeu_ps(
                dst.as_mut_ptr().add(i * 4).cast::<f32>(),
                _mm512_add_ps(cur, v),
            );
            i += 16;
        }
        add_assign_into_le_avx2(&mut dst[i * 4..n * 4], &add[i..n]);
    }

    /// # Safety
    /// Caller must have verified AVX-512F (and AVX2) support at runtime.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn add_assign_dequant_u8_avx512(out: &mut [f32], q: &[u8], scale: f32, min: f32) {
        let n = out.len().min(q.len());
        let mut i = 0;
        let sv = _mm512_set1_ps(scale);
        let mv = _mm512_set1_ps(min);
        while i + 16 <= n {
            let raw = _mm_loadu_si128(q.as_ptr().add(i).cast::<__m128i>());
            let w32 = _mm512_cvtepu8_epi32(raw);
            let f = _mm512_cvtepi32_ps(w32);
            let t = _mm512_add_ps(mv, _mm512_mul_ps(sv, f));
            let o = _mm512_loadu_ps(out.as_ptr().add(i));
            _mm512_storeu_ps(out.as_mut_ptr().add(i), _mm512_add_ps(o, t));
            i += 16;
        }
        add_assign_dequant_u8_avx2(&mut out[i..n], &q[i..n], scale, min);
    }

    pub fn sum_rows_le_sse2(out: &mut [f32], data: &[u8], offs: &[impl RowOffset]) {
        let n = out.len();
        let mut i = 0;
        while i + 16 <= n {
            unsafe {
                let mut a0 = _mm_loadu_ps(out.as_ptr().add(i));
                let mut a1 = _mm_loadu_ps(out.as_ptr().add(i + 4));
                let mut a2 = _mm_loadu_ps(out.as_ptr().add(i + 8));
                let mut a3 = _mm_loadu_ps(out.as_ptr().add(i + 12));
                for o in offs.iter().map(|o| o.to_usize()) {
                    let p = data[o + i * 4..o + i * 4 + 64].as_ptr().cast::<f32>();
                    a0 = _mm_add_ps(a0, _mm_loadu_ps(p));
                    a1 = _mm_add_ps(a1, _mm_loadu_ps(p.add(4)));
                    a2 = _mm_add_ps(a2, _mm_loadu_ps(p.add(8)));
                    a3 = _mm_add_ps(a3, _mm_loadu_ps(p.add(12)));
                }
                _mm_storeu_ps(out.as_mut_ptr().add(i), a0);
                _mm_storeu_ps(out.as_mut_ptr().add(i + 4), a1);
                _mm_storeu_ps(out.as_mut_ptr().add(i + 8), a2);
                _mm_storeu_ps(out.as_mut_ptr().add(i + 12), a3);
            }
            i += 16;
        }
        // Embedding tiles are narrow (the paper's Eq. 3 caps N_c at 8),
        // so the short blocks matter most: they keep the whole
        // accumulator in registers across the entire row list.
        if i + 8 <= n {
            unsafe {
                let mut a0 = _mm_loadu_ps(out.as_ptr().add(i));
                let mut a1 = _mm_loadu_ps(out.as_ptr().add(i + 4));
                for o in offs.iter().map(|o| o.to_usize()) {
                    let p = data[o + i * 4..o + i * 4 + 32].as_ptr().cast::<f32>();
                    a0 = _mm_add_ps(a0, _mm_loadu_ps(p));
                    a1 = _mm_add_ps(a1, _mm_loadu_ps(p.add(4)));
                }
                _mm_storeu_ps(out.as_mut_ptr().add(i), a0);
                _mm_storeu_ps(out.as_mut_ptr().add(i + 4), a1);
            }
            i += 8;
        }
        if i + 4 <= n {
            unsafe {
                let mut a0 = _mm_loadu_ps(out.as_ptr().add(i));
                for o in offs.iter().map(|o| o.to_usize()) {
                    let p = data[o + i * 4..o + i * 4 + 16].as_ptr().cast::<f32>();
                    a0 = _mm_add_ps(a0, _mm_loadu_ps(p));
                }
                _mm_storeu_ps(out.as_mut_ptr().add(i), a0);
            }
            i += 4;
        }
        if i < n {
            for o in offs.iter().map(|o| o.to_usize()) {
                add_assign_le_sse2(&mut out[i..], &data[o + i * 4..o + n * 4]);
            }
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_rows_le_avx2(out: &mut [f32], data: &[u8], offs: &[impl RowOffset]) {
        let n = out.len();
        let mut i = 0;
        while i + 16 <= n {
            let mut a0 = _mm256_loadu_ps(out.as_ptr().add(i));
            let mut a1 = _mm256_loadu_ps(out.as_ptr().add(i + 8));
            for o in offs.iter().map(|o| o.to_usize()) {
                let p = data[o + i * 4..o + i * 4 + 64].as_ptr().cast::<f32>();
                a0 = _mm256_add_ps(a0, _mm256_loadu_ps(p));
                a1 = _mm256_add_ps(a1, _mm256_loadu_ps(p.add(8)));
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(i), a0);
            _mm256_storeu_ps(out.as_mut_ptr().add(i + 8), a1);
            i += 16;
        }
        if i < n {
            for o in offs.iter().map(|o| o.to_usize()) {
                add_assign_le_avx2(&mut out[i..], &data[o + i * 4..o + n * 4]);
            }
        }
    }

    /// # Safety
    /// Caller must have verified AVX-512F (and AVX2) support at runtime.
    #[target_feature(enable = "avx512f", enable = "avx2")]
    pub unsafe fn sum_rows_le_avx512(out: &mut [f32], data: &[u8], offs: &[impl RowOffset]) {
        let n = out.len();
        let mut i = 0;
        while i + 32 <= n {
            let mut a0 = _mm512_loadu_ps(out.as_ptr().add(i));
            let mut a1 = _mm512_loadu_ps(out.as_ptr().add(i + 16));
            for o in offs.iter().map(|o| o.to_usize()) {
                let p = data[o + i * 4..o + i * 4 + 128].as_ptr().cast::<f32>();
                a0 = _mm512_add_ps(a0, _mm512_loadu_ps(p));
                a1 = _mm512_add_ps(a1, _mm512_loadu_ps(p.add(16)));
            }
            _mm512_storeu_ps(out.as_mut_ptr().add(i), a0);
            _mm512_storeu_ps(out.as_mut_ptr().add(i + 16), a1);
            i += 32;
        }
        while i + 16 <= n {
            let mut a0 = _mm512_loadu_ps(out.as_ptr().add(i));
            for o in offs.iter().map(|o| o.to_usize()) {
                let p = data[o + i * 4..o + i * 4 + 64].as_ptr().cast::<f32>();
                a0 = _mm512_add_ps(a0, _mm512_loadu_ps(p));
            }
            _mm512_storeu_ps(out.as_mut_ptr().add(i), a0);
            i += 16;
        }
        if i < n {
            for o in offs.iter().map(|o| o.to_usize()) {
                add_assign_le_avx2(&mut out[i..], &data[o + i * 4..o + n * 4]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// aarch64 NEON (baseline feature, safe to call unconditionally).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::RowOffset;
    use std::arch::aarch64::*;

    #[inline]
    pub fn add_assign_neon(out: &mut [f32], x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        unsafe {
            while i + 4 <= n {
                let o = vld1q_f32(out.as_ptr().add(i));
                let v = vld1q_f32(x.as_ptr().add(i));
                vst1q_f32(out.as_mut_ptr().add(i), vaddq_f32(o, v));
                i += 4;
            }
        }
        super::scalar::add_assign(&mut out[i..n], &x[i..n]);
    }

    #[inline]
    pub fn axpy_neon(out: &mut [f32], a: f32, x: &[f32]) {
        let n = out.len().min(x.len());
        let mut i = 0;
        unsafe {
            let av = vdupq_n_f32(a);
            while i + 4 <= n {
                let o = vld1q_f32(out.as_ptr().add(i));
                let v = vld1q_f32(x.as_ptr().add(i));
                // vmulq + vaddq, not vfmaq: keep the intermediate
                // rounding so lanes match the scalar loop bit-for-bit.
                let p = vmulq_f32(av, v);
                vst1q_f32(out.as_mut_ptr().add(i), vaddq_f32(o, p));
                i += 4;
            }
        }
        super::scalar::axpy(&mut out[i..n], a, &x[i..n]);
    }

    #[inline]
    pub fn add_assign_le_neon(out: &mut [f32], bytes: &[u8]) {
        let n = out.len().min(bytes.len() / 4);
        let mut i = 0;
        unsafe {
            while i + 4 <= n {
                let o = vld1q_f32(out.as_ptr().add(i));
                let v = vld1q_f32(bytes.as_ptr().add(i * 4).cast::<f32>());
                vst1q_f32(out.as_mut_ptr().add(i), vaddq_f32(o, v));
                i += 4;
            }
        }
        super::scalar::add_assign_le(&mut out[i..n], &bytes[i * 4..n * 4]);
    }

    #[inline]
    pub fn add_assign_into_le_neon(dst: &mut [u8], add: &[f32]) {
        let n = add.len().min(dst.len() / 4);
        let mut i = 0;
        unsafe {
            while i + 4 <= n {
                let cur = vld1q_f32(dst.as_ptr().add(i * 4).cast::<f32>());
                let v = vld1q_f32(add.as_ptr().add(i));
                vst1q_f32(dst.as_mut_ptr().add(i * 4).cast::<f32>(), vaddq_f32(cur, v));
                i += 4;
            }
        }
        super::scalar::add_assign_into_le(&mut dst[i * 4..n * 4], &add[i..n]);
    }

    #[inline]
    pub fn add_assign_dequant_u8_neon(out: &mut [f32], q: &[u8], scale: f32, min: f32) {
        let n = out.len().min(q.len());
        let mut i = 0;
        unsafe {
            let sv = vdupq_n_f32(scale);
            let mv = vdupq_n_f32(min);
            while i + 4 <= n {
                let w = [
                    q[i] as u32,
                    q[i + 1] as u32,
                    q[i + 2] as u32,
                    q[i + 3] as u32,
                ];
                let f = vcvtq_f32_u32(vld1q_u32(w.as_ptr()));
                let t = vaddq_f32(mv, vmulq_f32(sv, f));
                let o = vld1q_f32(out.as_ptr().add(i));
                vst1q_f32(out.as_mut_ptr().add(i), vaddq_f32(o, t));
                i += 4;
            }
        }
        super::scalar::add_assign_dequant_u8(&mut out[i..n], &q[i..n], scale, min);
    }

    pub fn sum_rows_le_neon(out: &mut [f32], data: &[u8], offs: &[impl RowOffset]) {
        let n = out.len();
        let mut i = 0;
        while i + 16 <= n {
            unsafe {
                let mut a0 = vld1q_f32(out.as_ptr().add(i));
                let mut a1 = vld1q_f32(out.as_ptr().add(i + 4));
                let mut a2 = vld1q_f32(out.as_ptr().add(i + 8));
                let mut a3 = vld1q_f32(out.as_ptr().add(i + 12));
                for o in offs.iter().map(|o| o.to_usize()) {
                    let p = data[o + i * 4..o + i * 4 + 64].as_ptr().cast::<f32>();
                    a0 = vaddq_f32(a0, vld1q_f32(p));
                    a1 = vaddq_f32(a1, vld1q_f32(p.add(4)));
                    a2 = vaddq_f32(a2, vld1q_f32(p.add(8)));
                    a3 = vaddq_f32(a3, vld1q_f32(p.add(12)));
                }
                vst1q_f32(out.as_mut_ptr().add(i), a0);
                vst1q_f32(out.as_mut_ptr().add(i + 4), a1);
                vst1q_f32(out.as_mut_ptr().add(i + 8), a2);
                vst1q_f32(out.as_mut_ptr().add(i + 12), a3);
            }
            i += 16;
        }
        // Narrow-tile blocks (Eq. 3 caps N_c at 8): keep the whole
        // accumulator in registers across the entire row list.
        if i + 8 <= n {
            unsafe {
                let mut a0 = vld1q_f32(out.as_ptr().add(i));
                let mut a1 = vld1q_f32(out.as_ptr().add(i + 4));
                for o in offs.iter().map(|o| o.to_usize()) {
                    let p = data[o + i * 4..o + i * 4 + 32].as_ptr().cast::<f32>();
                    a0 = vaddq_f32(a0, vld1q_f32(p));
                    a1 = vaddq_f32(a1, vld1q_f32(p.add(4)));
                }
                vst1q_f32(out.as_mut_ptr().add(i), a0);
                vst1q_f32(out.as_mut_ptr().add(i + 4), a1);
            }
            i += 8;
        }
        if i + 4 <= n {
            unsafe {
                let mut a0 = vld1q_f32(out.as_ptr().add(i));
                for o in offs.iter().map(|o| o.to_usize()) {
                    let p = data[o + i * 4..o + i * 4 + 16].as_ptr().cast::<f32>();
                    a0 = vaddq_f32(a0, vld1q_f32(p));
                }
                vst1q_f32(out.as_mut_ptr().add(i), a0);
            }
            i += 4;
        }
        if i < n {
            for o in offs.iter().map(|o| o.to_usize()) {
                add_assign_le_neon(&mut out[i..], &data[o + i * 4..o + n * 4]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points.
// ---------------------------------------------------------------------------

/// Below this element count the AVX2 tier routes to the inline SSE2
/// implementation instead: a `#[target_feature]` function cannot be
/// inlined into a caller compiled without that feature, and for
/// embedding-sized vectors (`n_c ≤ 8`) the out-of-line call costs more
/// than the wider vectors save. SSE2 and AVX2 are elementwise
/// bit-identical (same per-lane op sequence), so the routing is
/// invisible in results — only wall-clock speed changes.
#[cfg(target_arch = "x86_64")]
const AVX2_MIN_ELEMS: usize = 16;

/// Same idea one tier up: below one full zmm vector the AVX-512 tier
/// routes to AVX2 (which itself may route to SSE2 below
/// [`AVX2_MIN_ELEMS`]). Embedding-row sweeps (32 lanes) measured zmm
/// and ymm within noise of each other with zmm marginally ahead, so
/// the cutover sits at the smallest width a zmm op can fill.
#[cfg(target_arch = "x86_64")]
const AVX512_MIN_ELEMS: usize = 16;

/// `out[i] += x[i]` over `min(out.len(), x.len())` elements.
#[inline]
pub fn add_assign(out: &mut [f32], x: &[f32]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if out.len() >= AVX512_MIN_ELEMS => unsafe {
            x86::add_assign_avx512(out, x)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 if out.len() >= AVX2_MIN_ELEMS => unsafe {
            x86::add_assign_avx2(out, x)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 | SimdTier::Sse2 => x86::add_assign_sse2(out, x),
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => neon::add_assign_neon(out, x),
        _ => scalar::add_assign(out, x),
    }
}

/// `out[i] += a * x[i]` (multiply then add, no FMA) over
/// `min(out.len(), x.len())` elements.
#[inline]
pub fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if out.len() >= AVX512_MIN_ELEMS => unsafe { x86::axpy_avx512(out, a, x) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 if out.len() >= AVX2_MIN_ELEMS => unsafe {
            x86::axpy_avx2(out, a, x)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 | SimdTier::Sse2 => x86::axpy_sse2(out, a, x),
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => neon::axpy_neon(out, a, x),
        _ => scalar::axpy(out, a, x),
    }
}

/// `out[i] += f32::from_le_bytes(bytes[4i..4i+4])` over
/// `min(out.len(), bytes.len() / 4)` elements — the partial-sum decode
/// used by `gather_combine` and the kernel's row accumulation.
#[inline]
pub fn add_assign_le(out: &mut [f32], bytes: &[u8]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if out.len() >= AVX512_MIN_ELEMS => unsafe {
            x86::add_assign_le_avx512(out, bytes)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 if out.len() >= AVX2_MIN_ELEMS => unsafe {
            x86::add_assign_le_avx2(out, bytes)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 | SimdTier::Sse2 => x86::add_assign_le_sse2(out, bytes),
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => neon::add_assign_le_neon(out, bytes),
        _ => scalar::add_assign_le(out, bytes),
    }
}

/// Read-modify-write of little-endian f32 bytes:
/// `dst[4i..4i+4] = le(f32::from_le(dst[4i..4i+4]) + add[i])` over
/// `min(add.len(), dst.len() / 4)` elements — the dedup kernel's
/// shared-WRAM accumulator update.
#[inline]
pub fn add_assign_into_le(dst: &mut [u8], add: &[f32]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if add.len() >= AVX512_MIN_ELEMS => unsafe {
            x86::add_assign_into_le_avx512(dst, add)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 if add.len() >= AVX2_MIN_ELEMS => unsafe {
            x86::add_assign_into_le_avx2(dst, add)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 | SimdTier::Sse2 => {
            x86::add_assign_into_le_sse2(dst, add)
        }
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => neon::add_assign_into_le_neon(dst, add),
        _ => scalar::add_assign_into_le(dst, add),
    }
}

/// Fused dequantize-and-accumulate: `out[i] += min + scale * q[i]`
/// (per lane: convert, multiply, add min, accumulate — same op order in
/// every implementation) over `min(out.len(), q.len())` elements.
#[inline]
pub fn add_assign_dequant_u8(out: &mut [f32], q: &[u8], scale: f32, min: f32) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if out.len() >= AVX512_MIN_ELEMS => unsafe {
            x86::add_assign_dequant_u8_avx512(out, q, scale, min)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 if out.len() >= AVX2_MIN_ELEMS => unsafe {
            x86::add_assign_dequant_u8_avx2(out, q, scale, min)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 | SimdTier::Sse2 => {
            x86::add_assign_dequant_u8_sse2(out, q, scale, min)
        }
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => neon::add_assign_dequant_u8_neon(out, q, scale, min),
        _ => scalar::add_assign_dequant_u8(out, q, scale, min),
    }
}

/// A row's byte offset as [`sum_rows_le`] takes it: `usize`, or `u32`
/// where the caller has checked that the store fits (a list of them is
/// half the size).
pub trait RowOffset: Copy {
    /// The offset as an index.
    fn to_usize(self) -> usize;
}

impl RowOffset for usize {
    #[inline(always)]
    fn to_usize(self) -> usize {
        self
    }
}

impl RowOffset for u32 {
    #[inline(always)]
    fn to_usize(self) -> usize {
        self as usize
    }
}

/// Fused multi-row gather-accumulate: for each `o` in `offs`, in order,
/// `out[i] += le_f32(data[o + 4i..])` over all `out.len()` elements —
/// equivalent to one [`add_assign_le`] call per row, but the
/// accumulator stays in vector registers across the whole row list
/// instead of round-tripping through memory per row. Every element's
/// additions run in `offs` order in every tier, so results are
/// bit-identical to the per-row calls.
///
/// Panics if any row `data[o..o + 4 * out.len()]` is out of bounds.
#[inline]
pub fn sum_rows_le(out: &mut [f32], data: &[u8], offs: &[impl RowOffset]) {
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 if out.len() >= AVX512_MIN_ELEMS => unsafe {
            x86::sum_rows_le_avx512(out, data, offs)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 if out.len() >= AVX2_MIN_ELEMS => unsafe {
            x86::sum_rows_le_avx2(out, data, offs)
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 | SimdTier::Avx2 | SimdTier::Sse2 => {
            x86::sum_rows_le_sse2(out, data, offs)
        }
        #[cfg(target_arch = "aarch64")]
        SimdTier::Neon => neon::sum_rows_le_neon(out, data, offs),
        _ => {
            for o in offs.iter().map(|o| o.to_usize()) {
                scalar::add_assign_le(out, &data[o..o + 4 * out.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic "awkward" f32s: mixes of magnitudes, signs, exact
    /// zeros and subnormal-adjacent values, at lengths that exercise
    /// every vector width and tail.
    fn gen(len: usize, seed: u32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..len)
            .map(|i| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                if i % 7 == 3 {
                    0.0
                } else {
                    let m = (s >> 8) as f32 / (1 << 24) as f32 - 0.5;
                    m * 10f32.powi((s % 13) as i32 - 6)
                }
            })
            .collect()
    }

    fn capability_tiers() -> Vec<SimdTier> {
        let mut tiers = vec![SimdTier::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            tiers.push(SimdTier::Sse2);
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(SimdTier::Avx2);
            }
            if detect_capability() == SimdTier::Avx512 {
                tiers.push(SimdTier::Avx512);
            }
        }
        #[cfg(target_arch = "aarch64")]
        tiers.push(SimdTier::Neon);
        tiers
    }

    /// Runs `f` under every supported tier and asserts the outputs are
    /// bit-identical to the scalar reference. Restores detection after.
    fn differential(mut f: impl FnMut() -> Vec<f32>) {
        let _guard = test_tier_lock();
        force_tier(Some(SimdTier::Scalar));
        let reference = f();
        for t in capability_tiers() {
            force_tier(Some(t));
            let got = f();
            assert_eq!(got.len(), reference.len());
            for (i, (g, r)) in got.iter().zip(reference.iter()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "tier {} lane {i}: {g} != {r}",
                    t.as_str()
                );
            }
        }
        force_tier(None);
    }

    #[test]
    fn add_assign_matches_scalar_all_tiers() {
        for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 63, 100] {
            differential(|| {
                let mut out = gen(len, 1);
                add_assign(&mut out, &gen(len, 2));
                out
            });
        }
    }

    #[test]
    fn axpy_matches_scalar_all_tiers() {
        for len in [0, 1, 3, 4, 6, 8, 11, 16, 31, 64, 97] {
            for a in [0.0f32, 1.0, -2.5, 3.141592e-3, 1.7e5] {
                differential(|| {
                    let mut out = gen(len, 3);
                    axpy(&mut out, a, &gen(len, 4));
                    out
                });
            }
        }
    }

    #[test]
    fn add_assign_le_matches_scalar_all_tiers() {
        for len in [0, 1, 2, 4, 5, 8, 13, 16, 33, 80] {
            differential(|| {
                let mut out = gen(len, 5);
                let bytes: Vec<u8> = gen(len, 6).iter().flat_map(|v| v.to_le_bytes()).collect();
                add_assign_le(&mut out, &bytes);
                out
            });
        }
    }

    #[test]
    fn add_assign_into_le_matches_scalar_all_tiers() {
        for len in [0, 1, 2, 4, 6, 8, 12, 16, 29, 72] {
            differential(|| {
                let mut dst: Vec<u8> = gen(len, 7).iter().flat_map(|v| v.to_le_bytes()).collect();
                add_assign_into_le(&mut dst, &gen(len, 8));
                dst.chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect()
            });
        }
    }

    #[test]
    fn dequant_accumulate_matches_scalar_all_tiers() {
        for len in [0, 1, 3, 4, 7, 8, 9, 16, 21, 64] {
            for (scale, min) in [
                (0.0f32, 0.0f32),
                (0.013, -1.7),
                (2.0e-4, 0.55),
                (1.5, -200.0),
            ] {
                differential(|| {
                    let mut out = gen(len, 9);
                    let q: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
                    add_assign_dequant_u8(&mut out, &q, scale, min);
                    out
                });
            }
        }
    }

    #[test]
    fn sum_rows_le_matches_scalar_all_tiers() {
        for len in [0, 1, 2, 4, 5, 8, 13, 16, 17, 32, 33, 48, 80] {
            for n_rows in [0usize, 1, 2, 3, 7, 20] {
                differential(|| {
                    let mut out = gen(len, 10);
                    let data: Vec<u8> = gen(len * n_rows, 11)
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect();
                    // Rows visited back to front: offsets need not be
                    // sorted or disjoint from each other's order.
                    let offs: Vec<usize> = (0..n_rows).rev().map(|r| r * len * 4).collect();
                    sum_rows_le(&mut out, &data, &offs);
                    out
                });
            }
        }
    }

    #[test]
    fn sum_rows_le_matches_per_row_add_assign_le() {
        let _guard = test_tier_lock();
        force_tier(None);
        for len in [8usize, 16, 32, 48] {
            let n_rows = 9;
            let vals = gen(len * n_rows, 12);
            let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let offs: Vec<usize> = (0..n_rows).map(|r| r * len * 4).collect();
            let mut fused = gen(len, 13);
            let mut per_row = fused.clone();
            sum_rows_le(&mut fused, &data, &offs);
            for &o in &offs {
                add_assign_le(&mut per_row, &data[o..o + 4 * len]);
            }
            for (i, (f, p)) in fused.iter().zip(per_row.iter()).enumerate() {
                assert_eq!(f.to_bits(), p.to_bits(), "len {len} lane {i}: {f} != {p}");
            }
        }
    }

    #[test]
    fn forcing_unsupported_tier_falls_back_to_scalar() {
        let _guard = test_tier_lock();
        #[cfg(target_arch = "x86_64")]
        {
            force_tier(Some(SimdTier::Neon));
            assert_eq!(tier(), SimdTier::Scalar);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            force_tier(Some(SimdTier::Avx2));
            assert_eq!(tier(), SimdTier::Scalar);
        }
        force_tier(None);
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(SimdTier::Scalar.as_str(), "scalar");
        assert_eq!(SimdTier::Sse2.as_str(), "sse2");
        assert_eq!(SimdTier::Avx2.as_str(), "avx2");
        assert_eq!(SimdTier::Avx512.as_str(), "avx512");
        assert_eq!(SimdTier::Neon.as_str(), "neon");
        assert!(!tier_name().is_empty());
    }
}
