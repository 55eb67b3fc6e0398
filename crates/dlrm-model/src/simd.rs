//! Runtime-dispatched SIMD primitives for the embedding/MLP hot loops.
//!
//! Every serving-path inner loop — the MLPs' matrix products, the
//! kernel's row accumulation, `gather_combine`'s little-endian
//! partial-sum adds and the dequant-on-gather fuse — funnels through
//! the handful of primitives in this module. Each primitive picks an
//! implementation once per process from the CPU's capabilities:
//!
//! * **x86_64** — AVX-512 when `is_x86_feature_detected!("avx512f")`
//!   says so, else AVX2 when `is_x86_feature_detected!("avx2")` says
//!   so, otherwise SSE2 (part of the x86_64 baseline, always
//!   available);
//! * **aarch64** — NEON (part of the aarch64 baseline);
//! * anything else, or `UPDLRM_FORCE_SCALAR=1` in the environment — the
//!   scalar reference loops.
//!
//! **Bit-exactness contract.** Every implementation of a primitive
//! performs the *same* sequence of IEEE-754 single operations on each
//! output element (multiply, then add — never a fused multiply-add,
//! which skips the intermediate rounding). The elementwise primitives
//! get that for free: lane `i` of the output depends only on lane `i`
//! of the inputs. [`gemm`] sums over `k`, and keeps it by adding every
//! element's products in ascending `k` whatever the blocking.
//! Vectorizing therefore changes nothing about the results: scalar and
//! SIMD are bit-identical on every input, which the differential tests
//! in this module and in every caller pin down. That is also why the
//! dispatch tier is *not* recorded in any modeled output — only
//! wall-clock speed changes with the tier.

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

/// Inverse of the `SimdTier as u8 + 1` that [`TIER`] stores.
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
        v => decode(v),
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

    /// The ascending-`k` loop nest that defines [`super::gemm`]: the
    /// scalar tier, the NEON tier's body, and what every blocked tile
    /// must reproduce bit for bit.
    pub fn gemm(out: &mut [f32], a: &[f32], a_stride: usize, b: &[f32], n: usize) {
        let k = b.len() / n;
        for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a[r * a_stride..][..k];
            for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// Columns `j0..n` of [`gemm`], one dot product per output element:
    /// where the vector tiers finish a width that is not a whole number
    /// of vectors, and all of the 16→1 CTR head.
    #[cfg(target_arch = "x86_64")]
    pub fn gemm_cols(out: &mut [f32], a: &[f32], a_stride: usize, b: &[f32], n: usize, j0: usize) {
        let k = b.len() / n;
        for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a[r * a_stride..][..k];
            for (j, o) in out_row.iter_mut().enumerate().skip(j0) {
                let mut acc = *o;
                for (kk, &av) in a_row.iter().enumerate() {
                    acc += av * b[kk * n + j];
                }
                *o = acc;
            }
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

    /// One tier of the register-blocked GEMM behind [`super::gemm`]:
    /// `$tile` keeps an `NR`-row x `NV`-vector block of `out` in
    /// registers across the whole `k` loop, each `b` vector loaded once
    /// per `k` and shared by the `NR` rows; `$block` sweeps the rows of
    /// one column block four at a time, then singly; `$gemm` sweeps
    /// columns `j0..n` in blocks of `$nv` vectors, widest first, and
    /// hands what is narrower than one vector to `$tail`.
    macro_rules! gemm_tier {
        (
            $feat:literal, $lanes:literal,
            $zero:ident, $loadu:ident, $storeu:ident, $splat:ident, $mul:ident, $add:ident,
            $tile:ident, $block:ident, $gemm:ident, blocks [$($nv:literal),+], tail $tail:path
        ) => {
            /// # Safety
            /// Caller must have verified the tier's features at runtime.
            /// For every `r < NR`, `kk < k` and `c < NV * lanes`,
            /// `out.add(r * n + c)` must be valid for reads and writes
            /// and `a.add(r * a_stride + kk)`, `b.add(kk * n + c)` for
            /// reads.
            #[target_feature(enable = $feat)]
            unsafe fn $tile<const NR: usize, const NV: usize>(
                out: *mut f32,
                a: *const f32,
                a_stride: usize,
                b: *const f32,
                k: usize,
                n: usize,
            ) {
                let mut acc = [[$zero(); NV]; NR];
                for (r, row) in acc.iter_mut().enumerate() {
                    for (c, v) in row.iter_mut().enumerate() {
                        *v = $loadu(out.add(r * n + c * $lanes));
                    }
                }
                for kk in 0..k {
                    let mut bv = [$zero(); NV];
                    for (c, v) in bv.iter_mut().enumerate() {
                        *v = $loadu(b.add(kk * n + c * $lanes));
                    }
                    for (r, row) in acc.iter_mut().enumerate() {
                        let av = $splat(*a.add(r * a_stride + kk));
                        for (v, &bc) in row.iter_mut().zip(bv.iter()) {
                            // Multiply then add — no FMA, so each lane
                            // rounds exactly like the scalar `o + a * b`.
                            *v = $add(*v, $mul(av, bc));
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for (c, &v) in row.iter().enumerate() {
                        $storeu(out.add(r * n + c * $lanes), v);
                    }
                }
            }

            /// # Safety
            /// As the tile's, for every `r < rows`.
            #[target_feature(enable = $feat)]
            unsafe fn $block<const NV: usize>(
                out: *mut f32,
                a: *const f32,
                a_stride: usize,
                b: *const f32,
                rows: usize,
                k: usize,
                n: usize,
            ) {
                let mut r = 0;
                while r + 4 <= rows {
                    $tile::<4, NV>(out.add(r * n), a.add(r * a_stride), a_stride, b, k, n);
                    r += 4;
                }
                while r < rows {
                    $tile::<1, NV>(out.add(r * n), a.add(r * a_stride), a_stride, b, k, n);
                    r += 1;
                }
            }

            /// # Safety
            /// Caller must have verified the tier's features at runtime
            /// and the shape conditions [`super::gemm`] asserts
            /// (`n > 0`, `out` and `b` whole rows of `n`, `a` holding
            /// `b.len() / n` values at every row's `a_stride` offset).
            #[target_feature(enable = $feat)]
            pub unsafe fn $gemm(
                out: &mut [f32],
                a: &[f32],
                a_stride: usize,
                b: &[f32],
                n: usize,
                j0: usize,
            ) {
                let (rows, k) = (out.len() / n, b.len() / n);
                let mut j = j0;
                $(
                    while j + $nv * $lanes <= n {
                        $block::<$nv>(
                            out.as_mut_ptr().add(j),
                            a.as_ptr(),
                            a_stride,
                            b.as_ptr().add(j),
                            rows,
                            k,
                            n,
                        );
                        j += $nv * $lanes;
                    }
                )+
                if j < n {
                    $tail(out, a, a_stride, b, n, j);
                }
            }
        };
    }

    // Register budget: a 4 x NV tile holds 4·NV accumulators, NV `b`
    // vectors, one broadcast and one product. 32 zmm registers take
    // NV = 4 (22 live); the 16 ymm/xmm registers of the narrower tiers
    // take NV = 2 (12 live) and would spill at 4.
    gemm_tier!(
        "sse2", 4,
        _mm_setzero_ps, _mm_loadu_ps, _mm_storeu_ps, _mm_set1_ps, _mm_mul_ps, _mm_add_ps,
        gemm_tile_sse2, gemm_block_sse2, gemm_sse2, blocks [2, 1], tail super::scalar::gemm_cols
    );
    gemm_tier!(
        "avx2", 8,
        _mm256_setzero_ps, _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_mul_ps,
        _mm256_add_ps,
        gemm_tile_avx2, gemm_block_avx2, gemm_avx2, blocks [2, 1], tail gemm_sse2
    );
    gemm_tier!(
        "avx512f,avx2", 16,
        _mm512_setzero_ps, _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_mul_ps,
        _mm512_add_ps,
        gemm_tile_avx512, gemm_block_avx512, gemm_avx512, blocks [4, 2, 1], tail gemm_avx2
    );
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
///
/// Both cutoffs come from this table: ns per call in a hot loop, each
/// tier forced with the cutoffs at 0, median of three runs on the
/// AVX-512 box the benchmark runs on (`sum_rows_le` over 8 rows).
///
/// | lanes | primitive | xmm | ymm | zmm |
/// |---|---|---|---|---|
/// | 8 | `add_assign` / `_le` / `_into_le` | 4.4 / 4.3 / 4.7 | 6.0 / 5.8 / 6.5 | 5.2 / 6.5 / 7.4 |
/// | 8 | `add_assign_dequant_u8` / `sum_rows_le` | 6.5 / 11.1 | 5.8 / 36.6 | 6.8 / 36.4 |
/// | 16 | `add_assign` / `_le` / `_into_le` | 5.0 / 5.2 / 5.3 | 5.8 / 5.9 / 6.6 | 5.7 / 6.3 / 7.7 |
/// | 16 | `add_assign_dequant_u8` / `sum_rows_le` | 11.7 / 14.2 | 7.2 / 11.4 | 7.6 / 11.8 |
/// | 32 | `add_assign` / `_le` / `_into_le` | 6.8 / 7.0 / 7.4 | 6.1 / 6.7 / 8.1 | 6.8 / 7.2 / 7.4 |
/// | 32 | `add_assign_dequant_u8` / `sum_rows_le` | 18.5 / 22.3 | 8.2 / 18.5 | 8.6 / 15.3 |
/// | 64 | `add_assign` / `_le` / `_into_le` | 11.1 / 11.6 / 12.0 | 8.2 / 8.9 / 10.4 | 7.8 / 8.7 / 9.5 |
/// | 64 | `add_assign_dequant_u8` / `sum_rows_le` | 33.8 / 38.8 | 10.7 / 29.4 | 10.9 / 28.3 |
/// | 288 | `add_assign` / `_le` / `_into_le` | 25.8 / 29.2 / 30.6 | 20.6 / 20.6 / 26.2 | 19.9 / 15.6 / 24.0 |
/// | 288 | `add_assign_dequant_u8` / `sum_rows_le` | 140 / 156 | 30.4 / 129 | 20.6 / 91.3 |
///
/// ymm first wins at 16 lanes (dequant by 4.5 ns, the fused row sum by
/// 2.8 ns; the three adds give back at most 1.3 ns there and are level
/// from 32), so this cutoff stays at 16.
#[cfg(target_arch = "x86_64")]
const AVX2_MIN_ELEMS: usize = 16;

/// Same idea one tier up: below this the AVX-512 tier routes to AVX2
/// (which itself may route to SSE2 below [`AVX2_MIN_ELEMS`]). In the
/// table above, at 16 lanes — one zmm vector against two ymm — zmm is
/// never ahead (level to 1.1 ns behind on all five); at 32 lanes, one
/// embedding row, the fused row sum is 3.2 ns ahead and the rest are
/// within 0.7 ns either way; from 64 zmm is ahead or level everywhere.
/// Through the benchmark, 32-lane rows on zmm against the same build
/// cutting over at 64: `route_heavy` ahead in 6 of 6 alternating pairs
/// (≈ +3%), `pool_heavy` in 3 of 4, `pool_int8` behind in 4 of 4 by
/// under 1%. So the cutover is two zmm vectors. ([`gemm`] has no
/// cutoff: its tiers hand narrow column blocks down themselves.)
#[cfg(target_arch = "x86_64")]
const AVX512_MIN_ELEMS: usize = 32;

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

/// Accumulating row-major matrix product over slices:
/// `out[r, j] += Σ_kk a[r, kk] · b[kk, j]`, where `out` is `rows x n`,
/// `b` is `k x n` (so `rows = out.len() / n`, `k = b.len() / n`) and row
/// `r` of `a` is the `k` values at `a[r * a_stride..]` — a stride wider
/// than `k` multiplies a column range of a wider matrix in place.
///
/// Every output element starts from the value `out` holds and adds its
/// products in ascending `kk`, each a multiply **then** an add (never a
/// fused multiply-add), on every tier. The vector tiers block the loop
/// nest (accumulators stay in registers across the whole `k` loop) but
/// do not reorder any element's sum, so all tiers are bit-identical to
/// the scalar loop nest — and a product split along `k` into several
/// calls that accumulate into one `out`, first part first, is
/// bit-identical to the one-call product.
///
/// Products with `a[r, kk] == 0.0` are added like any other (the
/// axpy-per-`k` matmul this replaced skipped them). For finite `b` that
/// is unobservable when `out` starts at `+0.0`: such a product is `±0`,
/// a sum that starts at `+0.0` can never become `-0.0`, and adding `±0`
/// to anything but `-0.0` returns it unchanged. A non-finite `b` is
/// where the two differ (`0 · inf` is NaN), so weights must be finite.
///
/// # Panics
///
/// Panics if `out` or `b` is not a whole number of `n`-wide rows, if
/// `a_stride < k`, or if `a` ends before the last row's `k` values.
pub fn gemm(out: &mut [f32], a: &[f32], a_stride: usize, b: &[f32], n: usize) {
    if n == 0 {
        assert!(out.is_empty() && b.is_empty(), "gemm: rows of width 0");
        return;
    }
    let (rows, k) = (out.len() / n, b.len() / n);
    assert!(
        out.len() == rows * n && b.len() == k * n,
        "gemm: ragged rows"
    );
    assert!(a_stride >= k, "gemm: a_stride {a_stride} < k {k}");
    assert!(
        rows == 0 || a.len() >= (rows - 1) * a_stride + k,
        "gemm: a holds {} values, {rows} rows of {k} at stride {a_stride} need more",
        a.len()
    );
    // SAFETY (the three x86 arms): `tier()` only names a tier the CPU
    // was detected to support, and the asserts above are the shape
    // conditions the kernels require.
    match tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => unsafe { x86::gemm_avx512(out, a, a_stride, b, n, 0) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { x86::gemm_avx2(out, a, a_stride, b, n, 0) },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => unsafe { x86::gemm_sse2(out, a, a_stride, b, n, 0) },
        // NEON runs the loop nest (which LLVM vectorizes) until a tile
        // can be built and tested on an aarch64 toolchain.
        _ => scalar::gemm(out, a, a_stride, b, n),
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
            assert_eq!(tier(), t, "a forced tier is the tier that runs");
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

    /// The same products added in ascending `k`, multiply then add, one
    /// output element at a time — written out here so the blocked tiles
    /// are checked against something that shares no code with them.
    /// `skip_zeros` is the axpy-per-`k` matmul's `a == 0.0` shortcut.
    fn gemm_ijk(
        out: &mut [f32],
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        n: usize,
        skip_zeros: bool,
    ) {
        let (rows, k) = (
            out.len().checked_div(n).unwrap_or(0),
            b.len().checked_div(n).unwrap_or(0),
        );
        for r in 0..rows {
            for j in 0..n {
                let mut acc = out[r * n + j];
                for kk in 0..k {
                    let av = a[r * a_stride + kk];
                    if skip_zeros && av == 0.0 {
                        continue;
                    }
                    acc += av * b[kk * n + j];
                }
                out[r * n + j] = acc;
            }
        }
    }

    /// [`gen`] with `-0.0` and subnormals mixed in: the left-hand values
    /// the dropped zero skip and the flush-free contract care about.
    fn gen_lhs(len: usize, seed: u32) -> Vec<f32> {
        let mut v = gen(len, seed);
        for (i, x) in v.iter_mut().enumerate() {
            match i % 11 {
                5 => *x = -0.0,
                8 => *x = f32::from_bits((seed.wrapping_mul(i as u32 + 1) & 0x807f_ffff) | 1),
                _ => {}
            }
        }
        v
    }

    #[test]
    fn gemm_matches_scalar_all_tiers() {
        // The five layers of the paper-shape model at batch 16, a row
        // count that leaves a remainder tile, and widths that end in
        // every narrower block and in the dot-product tail.
        for (rows, k, n) in [
            (16, 13, 64),
            (16, 64, 32),
            (16, 288, 64),
            (16, 64, 16),
            (16, 16, 1),
            (5, 7, 130),
            (3, 9, 31),
            (9, 4, 7),
        ] {
            differential(|| {
                let mut out = gen(rows * n, 3);
                gemm(&mut out, &gen_lhs(rows * k, 4), k, &gen(k * n, 14), n);
                out
            });
        }
    }

    #[test]
    fn gemm_accepts_empty_shapes() {
        let mut none: [f32; 0] = [];
        gemm(&mut none, &[], 0, &[], 0);
        gemm(&mut none, &[], 3, &[1.0; 6], 2);
        let mut out = [1.5f32, -2.0];
        gemm(&mut out, &[], 0, &[], 2);
        assert_eq!(out, [1.5, -2.0]);
    }

    #[test]
    fn gemm_zero_skip_is_unobservable_from_a_zeroed_output() {
        // The matmul this replaced skipped `a == 0.0`; from `+0.0` and
        // with finite `b` the skipped and the unskipped sums agree in
        // every bit, signed zeros included.
        let (rows, k, n) = (6, 23, 37);
        let a = gen_lhs(rows * k, 21);
        assert!(a.iter().any(|v| v.to_bits() == 0) && a.iter().any(|v| v.to_bits() == 1 << 31));
        let b = gen(k * n, 22);
        let mut skipped = vec![0.0f32; rows * n];
        gemm_ijk(&mut skipped, &a, k, &b, n, true);
        differential(|| {
            let mut out = vec![0.0f32; rows * n];
            gemm(&mut out, &a, k, &b, n);
            for (o, s) in out.iter().zip(&skipped) {
                assert_eq!(o.to_bits(), s.to_bits(), "{o} vs skipped {s}");
            }
            out
        });
    }

    #[test]
    fn gemm_adds_zero_times_infinity_which_is_why_weights_must_be_finite() {
        // The precondition of the test above, made explicit: a zero
        // left-hand value against a non-finite weight is a NaN product,
        // which the old zero skip never formed.
        let mut skipped = [0.0f32];
        gemm_ijk(&mut skipped, &[0.0], 1, &[f32::INFINITY], 1, true);
        assert_eq!(skipped[0].to_bits(), 0);
        differential(|| {
            let mut out = vec![0.0f32; 16];
            gemm(&mut out, &[0.0], 1, &[f32::INFINITY; 16], 16);
            assert!(out.iter().all(|v| v.is_nan()));
            // NaN payloads are not part of the contract.
            vec![]
        });
    }

    proptest::proptest! {
        /// Blocked GEMM against the i-j-k oracle: every row remainder,
        /// column block and tail, a strided left-hand side, and the
        /// product split along `k` into parts that accumulate into a
        /// non-zero `out` — `to_bits` equality on every tier.
        #[test]
        fn gemm_matches_naive_oracle_on_every_tier(
            rows in 0usize..=9,
            k in 0usize..=40,
            n_idx in 0usize..12,
            pad in 0usize..=5,
            parts in 1usize..=3,
            seed in proptest::any::<u32>(),
        ) {
            let n = [0, 1, 3, 15, 16, 17, 31, 32, 48, 64, 65, 130][n_idx];
            let stride = k + pad;
            let a = gen_lhs(rows * stride, seed);
            let b = gen(k * n, seed ^ 0x55);
            let start = gen(rows * n, seed ^ 0xaa);
            // Part `p` is columns `cuts[p]..cuts[p + 1]` of `a` against
            // the same rows of `b`.
            let cuts: Vec<usize> = (0..=parts).map(|p| k * p / parts).collect();
            let mut want = start.clone();
            gemm_ijk(&mut want, &a, stride, &b, n, false);
            let _guard = test_tier_lock();
            for t in capability_tiers() {
                force_tier(Some(t));
                let mut got = start.clone();
                for w in cuts.windows(2) {
                    // The last row's part must end inside `a`.
                    let a_part = if rows == 0 { &a[..] } else { &a[w[0]..(rows - 1) * stride + w[1]] };
                    gemm(&mut got, a_part, stride, &b[w[0] * n..w[1] * n], n);
                }
                force_tier(None);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    proptest::prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "tier {} {}x{}x{} stride {} parts {} element {}: {} != {}",
                        t.as_str(), rows, k, n, stride, parts, i, g, w
                    );
                }
            }
        }
    }

    #[test]
    fn tier_is_stable_across_calls() {
        let _guard = test_tier_lock();
        // From the undetected state: the call that detects and the
        // calls that read the cache back must agree.
        TIER.store(0, Ordering::Relaxed);
        assert_eq!([tier(), tier(), tier()], [detect(); 3]);
    }

    #[test]
    fn forced_tier_is_the_tier_that_runs() {
        let _guard = test_tier_lock();
        for t in capability_tiers() {
            force_tier(Some(t));
            assert_eq!([tier(), tier()], [t; 2]);
            assert_eq!(tier_name(), t.as_str());
        }
        force_tier(None);
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
