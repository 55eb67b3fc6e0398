//! Runtime-dispatched SIMD primitives for the embedding/MLP hot loops.
//!
//! Every serving-path inner loop — the MLPs' matrix products, the
//! kernel's row accumulation, `stage3`'s little-endian partial-sum
//! adds and the dequant-on-gather fuse — funnels through the seven
//! primitives in this module.
//!
//! **One source per primitive.** Each primitive is written once, in
//! `mod body`, as a plain safe loop over fixed-width blocks that the
//! compiler vectorizes, and every tier is that same source compiled for
//! that tier (`multiversion!`):
//!
//! * `scalar` — the body at the build's baseline instruction set: SSE2
//!   on x86_64, NEON on aarch64, whatever the target has elsewhere.
//!   Inlined into the caller; the only tier off x86_64, and what
//!   `UPDLRM_FORCE_SCALAR=1` in the environment pins;
//! * `avx2` — the body again under `#[target_feature(enable = "avx2")]`,
//!   taken when `is_x86_feature_detected!("avx2")` says so;
//! * `avx512` — and under `avx512f,avx2`, when both are detected.
//!
//! **One tier per process, overridden only in scope.** The process
//! detects its tier once; [`with_tier`] overrides it for one thread,
//! until its closure returns or unwinds. The engine's DPU worker runs
//! each launch on its sender's tier. A loop that calls primitives per
//! item reads the tier once before it, as a [`Dispatch`], and calls
//! the primitives as its methods.
//!
//! **Bit-exactness contract.** Every tier performs the *same* sequence
//! of IEEE-754 single operations on each output element (multiply, then
//! add — never a fused multiply-add, which skips the intermediate
//! rounding). With one source that holds by construction: rustc fuses
//! a multiply and an add only where the source asks for the fused
//! operation by name, which this crate never does, and vectorizing a
//! loop does not reorder any one element's operations. The elementwise primitives depend on lane `i` of their
//! inputs only; [`gemm`] sums over `k` and adds every element's
//! products in ascending `k` whatever the blocking. So the tiers are
//! bit-identical on every input — the tests in this module check the
//! one source against per-element oracles that share no code with it,
//! and every caller's differential tests pin the tiers to each other.
//! That is also why the dispatch tier is *not* recorded in any modeled
//! output — only wall-clock speed changes with the tier.

/// The instruction-set tier a primitive dispatches to, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// The baseline copy: compiled for the target's default features
    /// (fallback, or forced via `UPDLRM_FORCE_SCALAR=1`).
    Scalar,
    /// The copy compiled for 256-bit AVX2.
    Avx2,
    /// The copy compiled for 512-bit AVX-512 (F subset, plus AVX2 for
    /// the blocks narrower than one zmm vector).
    Avx512,
}

impl SimdTier {
    /// Stable lower-case name, recorded in bench rows
    /// (`"avx512" | "avx2" | "scalar"`).
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

/// The process's tier, resolved once on first use and never stored
/// again: scalar under `UPDLRM_FORCE_SCALAR=1`, else the CPU's widest.
#[inline]
fn detected() -> SimdTier {
    static DETECTED: std::sync::OnceLock<SimdTier> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| match std::env::var_os("UPDLRM_FORCE_SCALAR") {
        Some(v) if v == "1" => SimdTier::Scalar,
        _ => detect_capability(),
    })
}

thread_local! {
    /// This thread's [`with_tier`] override, while one runs.
    static OVERRIDE: std::cell::Cell<Option<SimdTier>> = const { std::cell::Cell::new(None) };
}

/// The tier every primitive dispatches to on this thread: the innermost
/// [`with_tier`] override around the call, else the detected tier.
#[inline]
pub fn tier() -> SimdTier {
    OVERRIDE.get().unwrap_or_else(detected)
}

/// This thread's [`tier`], read once: every primitive is a method of
/// it that dispatches on that tier without reading it again, for a
/// loop that calls primitives per item. Only [`dispatch`] makes one, so
/// it never names a tier the CPU lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatch(SimdTier);

/// This thread's [`tier`] as a [`Dispatch`].
#[inline]
pub fn dispatch() -> Dispatch {
    Dispatch(tier())
}

/// Stable name of the active tier (see [`SimdTier::as_str`]).
pub fn tier_name() -> &'static str {
    tier().as_str()
}

/// Runs `f` with every primitive on this thread — no other — dispatching
/// to `t` (scalar if the CPU lacks `t`), until `f` returns or unwinds.
/// For differential tests and scalar/SIMD identity checks: the detected
/// tier is always correct.
pub fn with_tier<R>(t: SimdTier, f: impl FnOnce() -> R) -> R {
    /// Puts the outer override back, on return and on unwind alike.
    struct Restore(Option<SimdTier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.set(self.0);
        }
    }
    let capable = t <= detect_capability();
    let _restore = Restore(OVERRIDE.replace(Some(if capable { t } else { SimdTier::Scalar })));
    f()
}

/// Detection ignoring the `UPDLRM_FORCE_SCALAR` override: what the CPU
/// can actually execute.
fn detect_capability() -> SimdTier {
    // The 512-bit copy is compiled with AVX2 as well, so it needs both
    // features (every real AVX-512F part has AVX2).
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return if std::arch::is_x86_feature_detected!("avx512f") {
            SimdTier::Avx512
        } else {
            SimdTier::Avx2
        };
    }
    SimdTier::Scalar
}

// ---------------------------------------------------------------------------
// The one implementation of each primitive. Everything here is
// `#[inline(always)]` so that it is compiled with the features of the
// copy it is inlined into; nothing here names an instruction set.
// ---------------------------------------------------------------------------

mod body {
    use super::RowOffset;
    use crate::quant::QROW_HEADER_BYTES;

    #[inline(always)]
    pub fn add_assign(out: &mut [f32], x: &[f32]) {
        for (o, &v) in out.iter_mut().zip(x.iter()) {
            *o += v;
        }
    }

    #[inline(always)]
    pub fn add_assign_le(out: &mut [f32], bytes: &[u8]) {
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o += f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
    }

    #[inline(always)]
    pub fn add_assign_into_le(dst: &mut [u8], add: &[f32]) {
        for (d, &v) in dst.chunks_exact_mut(4).zip(add.iter()) {
            let cur = f32::from_le_bytes([d[0], d[1], d[2], d[3]]);
            d.copy_from_slice(&(cur + v).to_le_bytes());
        }
    }

    #[inline(always)]
    pub fn add_assign_dequant_u8(out: &mut [f32], q: &[u8], scale: f32, min: f32) {
        for (o, &b) in out.iter_mut().zip(q.iter()) {
            *o += min + scale * b as f32;
        }
    }

    /// Elements `i..i + W` of [`sum_rows_le`]: loaded once into an array
    /// the compiler keeps in vector registers, given every row's `W`
    /// values in `offs` order, stored once.
    #[inline(always)]
    fn sum_rows_block<const W: usize>(
        out: &mut [f32],
        data: &[u8],
        offs: &[impl RowOffset],
        i: usize,
    ) {
        let out = &mut out[i..i + W];
        let mut acc = [0.0f32; W];
        acc.copy_from_slice(out);
        for o in offs {
            let row = &data[o.to_usize() + 4 * i..][..4 * W];
            for (a, c) in acc.iter_mut().zip(row.chunks_exact(4)) {
                *a += f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
        }
        out.copy_from_slice(&acc);
    }

    #[inline(always)]
    pub fn sum_rows_le(out: &mut [f32], data: &[u8], offs: &[impl RowOffset]) {
        let n = out.len();
        let mut i = 0;
        while i + 32 <= n {
            sum_rows_block::<32>(out, data, offs, i);
            i += 32;
        }
        // Embedding tiles are narrow (the paper's Eq. 3 caps N_c at 8),
        // so the short blocks matter most: they keep the whole
        // accumulator in registers across the entire row list.
        if i + 16 <= n {
            sum_rows_block::<16>(out, data, offs, i);
            i += 16;
        }
        if i + 8 <= n {
            sum_rows_block::<8>(out, data, offs, i);
            i += 8;
        }
        if i + 4 <= n {
            sum_rows_block::<4>(out, data, offs, i);
            i += 4;
        }
        if i < n {
            for o in offs.iter().map(|o| o.to_usize()) {
                add_assign_le(&mut out[i..], &data[o + 4 * i..o + 4 * n]);
            }
        }
    }

    /// The `(scale, min)` header of the quantized record at `rec`.
    #[inline(always)]
    fn record_params(rec: &[u8]) -> (f32, f32) {
        let h = &rec[..QROW_HEADER_BYTES];
        (
            f32::from_le_bytes([h[0], h[1], h[2], h[3]]),
            f32::from_le_bytes([h[4], h[5], h[6], h[7]]),
        )
    }

    /// Elements `i..i + W` of [`sum_rows_tagged_le`]: [`sum_rows_block`]
    /// with each tagged offset's `W` values dequantized from its record.
    #[inline(always)]
    fn sum_tagged_block<const W: usize>(
        out: &mut [f32],
        data: &[u8],
        offs: &[u32],
        tag: u32,
        i: usize,
    ) {
        let out = &mut out[i..i + W];
        let mut acc = [0.0f32; W];
        acc.copy_from_slice(out);
        for &o in offs {
            if o & tag == 0 {
                let row = &data[o as usize + 4 * i..][..4 * W];
                for (a, c) in acc.iter_mut().zip(row.chunks_exact(4)) {
                    *a += f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                }
            } else {
                let rec = &data[(o & !tag) as usize..][..QROW_HEADER_BYTES + i + W];
                let (scale, min) = record_params(rec);
                for (a, &b) in acc.iter_mut().zip(&rec[QROW_HEADER_BYTES + i..]) {
                    *a += min + scale * b as f32;
                }
            }
        }
        out.copy_from_slice(&acc);
    }

    #[inline(always)]
    pub fn sum_rows_tagged_le(out: &mut [f32], data: &[u8], offs: &[u32], tag: u32) {
        let n = out.len();
        let mut i = 0;
        while i + 32 <= n {
            sum_tagged_block::<32>(out, data, offs, tag, i);
            i += 32;
        }
        if i + 16 <= n {
            sum_tagged_block::<16>(out, data, offs, tag, i);
            i += 16;
        }
        if i + 8 <= n {
            sum_tagged_block::<8>(out, data, offs, tag, i);
            i += 8;
        }
        if i + 4 <= n {
            sum_tagged_block::<4>(out, data, offs, tag, i);
            i += 4;
        }
        if i < n {
            for &o in offs {
                if o & tag == 0 {
                    let o = o as usize;
                    add_assign_le(&mut out[i..], &data[o + 4 * i..o + 4 * n]);
                } else {
                    let rec = &data[(o & !tag) as usize..];
                    let (scale, min) = record_params(rec);
                    add_assign_dequant_u8(
                        &mut out[i..],
                        &rec[QROW_HEADER_BYTES + i..QROW_HEADER_BYTES + n],
                        scale,
                        min,
                    );
                }
            }
        }
    }

    /// One `NR`-row x `W`-column tile of [`gemm`], with `out`, `a` and
    /// `b` starting at the tile's first row and column: the tile is an
    /// array the compiler keeps in vector registers across the whole
    /// `k` loop, each `b` row's `W` values loaded once per `k` and
    /// shared by the `NR` rows.
    #[inline(always)]
    fn gemm_tile<const NR: usize, const W: usize>(
        out: &mut [f32],
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        n: usize,
        k: usize,
    ) {
        // A plain loop, not `array::from_fn`: left out of line (it was,
        // in one width) that call hides that every row is `k` long, and
        // the `k` loop then checks each row's index separately.
        let mut a_rows = [&a[..0]; NR];
        for (r, a_row) in a_rows.iter_mut().enumerate() {
            *a_row = &a[r * a_stride..][..k];
        }
        let mut acc = [[0.0f32; W]; NR];
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&out[r * n..][..W]);
        }
        for kk in 0..k {
            let bv = &b[kk * n..][..W];
            for (row, a_row) in acc.iter_mut().zip(&a_rows) {
                let av = a_row[kk];
                for (v, &bc) in row.iter_mut().zip(bv) {
                    // Multiply then add, as two operations: each
                    // element rounds exactly like the oracle's
                    // `acc + a * b`.
                    *v += av * bc;
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            out[r * n..][..W].copy_from_slice(row);
        }
    }

    /// Columns `j..` of [`gemm`] in whole `W`-wide blocks, each swept
    /// four rows at a time, then singly; returns the first column left.
    #[inline(always)]
    fn gemm_blocks<const W: usize>(
        out: &mut [f32],
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        n: usize,
        mut j: usize,
    ) -> usize {
        let (rows, k) = (out.len() / n, b.len() / n);
        while j + W <= n {
            let b_j = &b[j..];
            let mut r = 0;
            while r + 4 <= rows {
                let (out_r, a_r) = (&mut out[r * n + j..], &a[r * a_stride..]);
                gemm_tile::<4, W>(out_r, a_r, a_stride, b_j, n, k);
                r += 4;
            }
            while r < rows {
                let (out_r, a_r) = (&mut out[r * n + j..], &a[r * a_stride..]);
                gemm_tile::<1, W>(out_r, a_r, a_stride, b_j, n, k);
                r += 1;
            }
            j += W;
        }
        j
    }

    /// [`super::gemm`] with column blocks up to `MAXW` wide: the widest
    /// 4-row tile the copy's register file holds beside the `b` values,
    /// one broadcast and one product — 4 x 8 floats in 8 of 16 xmm,
    /// 4 x 16 in 8 of 16 ymm, 4 x 64 in 16 of 32 zmm.
    #[inline(always)]
    pub fn gemm<const MAXW: usize>(
        out: &mut [f32],
        a: &[f32],
        a_stride: usize,
        b: &[f32],
        n: usize,
    ) {
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
        if k == 0 {
            return;
        }
        // Widest block first; a block wider than `MAXW` would spill.
        let mut j = 0;
        if MAXW >= 64 {
            j = gemm_blocks::<64>(out, a, a_stride, b, n, j);
        }
        if MAXW >= 32 {
            j = gemm_blocks::<32>(out, a, a_stride, b, n, j);
        }
        if MAXW >= 16 {
            j = gemm_blocks::<16>(out, a, a_stride, b, n, j);
        }
        j = gemm_blocks::<8>(out, a, a_stride, b, n, j);
        j = gemm_blocks::<4>(out, a, a_stride, b, n, j);
        // What is narrower than the narrowest block — and all of the
        // 16→1 CTR head — is one dot product per output element.
        for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
            let a_row = &a[r * a_stride..][..k];
            for (j, o) in out_row.iter_mut().enumerate().skip(j) {
                let mut acc = *o;
                for (&av, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
                    acc += av * b_row[j];
                }
                *o = acc;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points.
// ---------------------------------------------------------------------------

/// Below this element count the AVX2 tier runs the inlined baseline
/// copy instead: a `#[target_feature]` function cannot be inlined into
/// a caller compiled without that feature, and for embedding-sized
/// vectors (`n_c ≤ 8`) the out-of-line call costs more than the wider
/// vectors save. The copies are one source, so the routing is invisible
/// in results — only wall-clock speed changes.
///
/// Both cutoffs are read off the width table in DESIGN.md §4.10 (ns
/// per call in a hot loop, each tier forced with the cutoffs at 0,
/// median of three, on the AVX-512 box the benchmark runs on). At 16
/// lanes the ymm copy is behind the inlined xmm one on all four
/// elementwise primitives (by 1.6–3.4 ns: the vectorizer's main loop
/// takes 32 floats a turn and leaves 16 to its epilogue) and level on
/// the fused row sum; at 32 it is ahead on all five (by 0.7–2.8 ns).
#[cfg(target_arch = "x86_64")]
const AVX2_MIN_ELEMS: usize = 32;

/// Same idea one tier up: below this the AVX-512 tier runs the AVX2
/// copy (or the baseline copy below [`AVX2_MIN_ELEMS`]). In the same
/// table, at 32 lanes — one embedding row — the zmm copy is 1.5–2.7 ns
/// behind ymm on the elementwise primitives (its main loop takes 64
/// floats a turn) and 1.4 ns ahead on the row sum; from 64 it is ahead
/// or level on all five. ([`gemm`] has no cutoff: every copy hands
/// narrow column blocks down itself.)
#[cfg(target_arch = "x86_64")]
const AVX512_MIN_ELEMS: usize = 64;

/// Gives one entry point its three copies of one body. `$body` is
/// called in an inlined baseline copy and, on x86_64, in an `avx2` and
/// an `avx512` copy compiled with those features (module `$name`); the
/// one `match` on a [`Dispatch`]'s tier, in the entry point's
/// `Dispatch` method, picks a wide copy when the tier has it and the
/// call spans at least that tier's cutoff of `$elems` elements. The
/// free function is the method on [`dispatch`]`()`. Each copy defines
/// `MAXW`, the widest [`gemm`] column block its register file holds,
/// for `$body` to name.
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) = $body:expr, elems $elems:expr;
    ) => {
        $(#[$attr])*
        pub fn $name($($arg: $ty),*) {
            dispatch().$name($($arg),*)
        }

        /// The primitive's `avx2` and `avx512` copies.
        #[cfg(target_arch = "x86_64")]
        mod $name {
            use super::*;

            #[target_feature(enable = "avx2")]
            pub(super) fn avx2($($arg: $ty),*) {
                #[allow(dead_code)]
                const MAXW: usize = 16;
                $body($($arg),*)
            }

            #[target_feature(enable = "avx512f,avx2")]
            pub(super) fn avx512($($arg: $ty),*) {
                #[allow(dead_code)]
                const MAXW: usize = 64;
                $body($($arg),*)
            }
        }

        impl Dispatch {
            #[doc = concat!("[`", stringify!($name), "`] on this tier.")]
            #[inline]
            pub fn $name(self, $($arg: $ty),*) {
                #[cfg(target_arch = "x86_64")]
                {
                    let elems: usize = $elems;
                    // SAFETY: a Dispatch only holds a tier the CPU was detected to support
                    match self.0 {
                        SimdTier::Avx512 if elems >= AVX512_MIN_ELEMS => {
                            return unsafe { $name::avx512($($arg),*) };
                        }
                        SimdTier::Avx512 | SimdTier::Avx2 if elems >= AVX2_MIN_ELEMS => {
                            return unsafe { $name::avx2($($arg),*) };
                        }
                        _ => {}
                    }
                }
                #[allow(dead_code)]
                const MAXW: usize = 8;
                $body($($arg),*)
            }
        }
    };
}

multiversion! {
    /// `out[i] += x[i]` over `min(out.len(), x.len())` elements.
    #[inline]
    pub fn add_assign(out: &mut [f32], x: &[f32]) = body::add_assign, elems out.len();
}

multiversion! {
    /// `out[i] += f32::from_le_bytes(bytes[4i..4i+4])` over
    /// `min(out.len(), bytes.len() / 4)` elements — the partial-sum decode
    /// used by `stage3` and the kernel's row accumulation.
    #[inline]
    pub fn add_assign_le(out: &mut [f32], bytes: &[u8]) = body::add_assign_le, elems out.len();
}

multiversion! {
    /// Read-modify-write of little-endian f32 bytes:
    /// `dst[4i..4i+4] = le(f32::from_le(dst[4i..4i+4]) + add[i])` over
    /// `min(add.len(), dst.len() / 4)` elements — the dedup kernel's
    /// shared-WRAM accumulator update.
    #[inline]
    pub fn add_assign_into_le(dst: &mut [u8], add: &[f32]) = body::add_assign_into_le, elems add.len();
}

multiversion! {
    /// Fused dequantize-and-accumulate: `out[i] += min + scale * q[i]`
    /// (per element: convert, multiply, add min, accumulate) over
    /// `min(out.len(), q.len())` elements.
    #[inline]
    pub fn add_assign_dequant_u8(out: &mut [f32], q: &[u8], scale: f32, min: f32) =
        body::add_assign_dequant_u8, elems out.len();
}

multiversion! {
    /// Accumulating row-major matrix product over slices:
    /// `out[r, j] += Σ_kk a[r, kk] · b[kk, j]`, where `out` is `rows x n`,
    /// `b` is `k x n` (so `rows = out.len() / n`, `k = b.len() / n`) and row
    /// `r` of `a` is the `k` values at `a[r * a_stride..]` — a stride wider
    /// than `k` multiplies a column range of a wider matrix in place.
    ///
    /// Every output element starts from the value `out` holds and adds its
    /// products in ascending `kk`, each a multiply **then** an add (never a
    /// fused multiply-add), on every tier. The loop nest is blocked — a
    /// 4-row tile of accumulators stays in registers across the whole `k`
    /// loop, over column blocks from the tier's widest down to 4, then one
    /// dot product per leftover column — but no element's sum is
    /// reordered, so every tier is bit-identical to the plain loop nest,
    /// and a product split along `k` into several calls that accumulate
    /// into one `out`, first part first, is bit-identical to the one-call
    /// product.
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
    pub fn gemm(out: &mut [f32], a: &[f32], a_stride: usize, b: &[f32], n: usize) =
        body::gemm::<MAXW>, elems usize::MAX;
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

multiversion! {
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
    pub fn sum_rows_le(out: &mut [f32], data: &[u8], offs: &[impl RowOffset]) =
        body::sum_rows_le, elems out.len();
}

multiversion! {
    /// [`sum_rows_le`] over a list that mixes f32 rows with quantized
    /// records: an offset `o` without the `tag` bit is an f32 row at
    /// `data[o..]`, added as [`sum_rows_le`] adds it; one with the bit
    /// is a [`crate::quant`] record `[scale][min][q…]` at `o & !tag`,
    /// whose values `min + scale * q[i]` are added as
    /// [`add_assign_dequant_u8`] adds them. The accumulator stays in
    /// vector registers across the whole list, and every element's
    /// additions run in `offs` order, so the result is bit-identical to
    /// one per-row call per offset. With `tag == 0` every offset is an
    /// f32 row.
    ///
    /// Panics if any row or record runs past `data`.
    #[inline]
    pub fn sum_rows_tagged_le(out: &mut [f32], data: &[u8], offs: &[u32], tag: u32) =
        body::sum_rows_tagged_le, elems out.len();
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
        [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512]
            .into_iter()
            .filter(|&t| t <= detect_capability())
            .collect()
    }

    /// Runs `f` under every supported tier and asserts each output is
    /// bit-identical to `want`, which the caller computed with an oracle
    /// from [`oracle`] or [`gemm_ijk`] — with one body per primitive,
    /// comparing tiers with each other would compare a function with
    /// itself compiled wider.
    fn differential(want: &[f32], mut f: impl FnMut() -> Vec<f32>) {
        for t in capability_tiers() {
            let got = with_tier(t, || {
                assert_eq!(tier(), t, "a forced tier is the tier that runs");
                f()
            });
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "tier {} lane {i} of {}: {g} != {w}",
                    t.as_str(),
                    want.len()
                );
            }
        }
    }

    /// What each primitive computes, one element at a time by index —
    /// no blocks, no iterator adaptors, nothing shared with `mod body`.
    #[allow(clippy::needless_range_loop, clippy::assign_op_pattern)]
    mod oracle {
        fn le(bytes: &[u8], i: usize) -> f32 {
            f32::from_bits(u32::from_le_bytes([
                bytes[4 * i],
                bytes[4 * i + 1],
                bytes[4 * i + 2],
                bytes[4 * i + 3],
            ]))
        }

        pub fn add_assign(out: &mut [f32], x: &[f32]) {
            for i in 0..out.len().min(x.len()) {
                out[i] = out[i] + x[i];
            }
        }

        pub fn add_assign_le(out: &mut [f32], bytes: &[u8]) {
            for i in 0..out.len().min(bytes.len() / 4) {
                out[i] = out[i] + le(bytes, i);
            }
        }

        pub fn add_assign_into_le(dst: &mut [u8], add: &[f32]) {
            for i in 0..add.len().min(dst.len() / 4) {
                let sum = le(dst, i) + add[i];
                dst[4 * i..4 * i + 4].copy_from_slice(&sum.to_bits().to_le_bytes());
            }
        }

        pub fn add_assign_dequant_u8(out: &mut [f32], q: &[u8], scale: f32, min: f32) {
            for i in 0..out.len().min(q.len()) {
                let product = scale * f32::from(q[i]);
                let value = min + product;
                out[i] = out[i] + value;
            }
        }

        pub fn sum_rows_le(out: &mut [f32], data: &[u8], offs: &[usize]) {
            for i in 0..out.len() {
                for &o in offs {
                    out[i] = out[i] + le(&data[o..], i);
                }
            }
        }

        /// One row at a time, in `offs` order: an f32 row, or a
        /// `[scale][min][q…]` record dequantized element by element.
        pub fn sum_rows_tagged_le(out: &mut [f32], data: &[u8], offs: &[u32], tag: u32) {
            for &o in offs {
                if o & tag == 0 {
                    let row = &data[o as usize..];
                    for i in 0..out.len() {
                        out[i] = out[i] + le(row, i);
                    }
                } else {
                    let rec = &data[(o - tag) as usize..];
                    let (scale, min) = (le(rec, 0), le(rec, 1));
                    for i in 0..out.len() {
                        let product = scale * f32::from(rec[8 + i]);
                        let value = min + product;
                        out[i] = out[i] + value;
                    }
                }
            }
        }
    }

    fn le_bytes(vals: &[f32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn le_floats(bytes: &[u8]) -> Vec<f32> {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Every length that starts, ends or straddles a 32 / 16 / 8 / 4
    /// block or the tail, both cutoffs, and lengths that take the
    /// 32-wide `while` around more than once.
    fn lens() -> impl Iterator<Item = usize> {
        (0..=70).chain([95, 96, 97, 100, 127, 128, 131, 288])
    }

    #[test]
    fn add_assign_matches_scalar_all_tiers() {
        for len in lens() {
            let mut want = gen(len, 1);
            oracle::add_assign(&mut want, &gen(len, 2));
            differential(&want, || {
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
            let (a, b) = (gen_lhs(rows * k, 4), gen(k * n, 14));
            let mut want = gen(rows * n, 3);
            gemm_ijk(&mut want, &a, k, &b, n, false);
            differential(&want, || {
                let mut out = gen(rows * n, 3);
                gemm(&mut out, &a, k, &b, n);
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
        differential(&skipped, || {
            let mut out = vec![0.0f32; rows * n];
            gemm(&mut out, &a, k, &b, n);
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
        differential(&[], || {
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
            for t in capability_tiers() {
                let mut got = start.clone();
                with_tier(t, || {
                    for w in cuts.windows(2) {
                        // The last row's part must end inside `a`.
                        let a_part = if rows == 0 { &a[..] } else { &a[w[0]..(rows - 1) * stride + w[1]] };
                        gemm(&mut got, a_part, stride, &b[w[0] * n..w[1] * n], n);
                    }
                });
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
        // Outside an override, every call on every thread reads the one
        // tier the process detected, and that is what the environment
        // and the CPU say.
        let forced = std::env::var_os("UPDLRM_FORCE_SCALAR").is_some_and(|v| v == "1");
        let want = if forced {
            SimdTier::Scalar
        } else {
            detect_capability()
        };
        let there = std::thread::spawn(|| [tier(), tier()]).join().unwrap();
        assert_eq!([tier(), tier(), tier()], [want; 3]);
        assert_eq!(there, [want; 2]);
    }

    #[test]
    fn forced_tier_is_the_tier_that_runs() {
        for t in capability_tiers() {
            with_tier(t, || {
                assert_eq!([tier(), tier()], [t; 2]);
                assert_eq!(tier_name(), t.as_str());
                // Only this thread is overridden.
                let there = std::thread::spawn(tier).join().unwrap();
                assert_eq!(there, detected());
                // An inner override ends where its closure does.
                for inner in capability_tiers() {
                    assert_eq!(with_tier(inner, tier), inner);
                    assert_eq!(tier(), t);
                }
            });
        }
        assert_eq!(tier(), detected());
    }

    #[test]
    fn the_override_ends_when_its_closure_panics() {
        for outer in capability_tiers() {
            with_tier(outer, || {
                for t in capability_tiers() {
                    let unwound = std::panic::catch_unwind(|| {
                        with_tier(t, || panic!("planted panic on tier {}", t.as_str()))
                    });
                    assert!(unwound.is_err());
                    assert_eq!(tier(), outer, "a panic on {t:?} left its override");
                }
            });
            assert_eq!(tier(), detected());
        }
    }

    #[test]
    fn add_assign_le_matches_scalar_all_tiers() {
        for len in lens() {
            let bytes = le_bytes(&gen(len, 6));
            let mut want = gen(len, 5);
            oracle::add_assign_le(&mut want, &bytes);
            differential(&want, || {
                let mut out = gen(len, 5);
                add_assign_le(&mut out, &bytes);
                out
            });
        }
    }

    #[test]
    fn add_assign_into_le_matches_scalar_all_tiers() {
        for len in lens() {
            let mut want = le_bytes(&gen(len, 7));
            oracle::add_assign_into_le(&mut want, &gen(len, 8));
            differential(&le_floats(&want), || {
                let mut dst = le_bytes(&gen(len, 7));
                add_assign_into_le(&mut dst, &gen(len, 8));
                le_floats(&dst)
            });
        }
    }

    #[test]
    fn dequant_accumulate_matches_scalar_all_tiers() {
        for len in lens() {
            let q: Vec<u8> = (0..len).map(|i| (i * 37 % 256) as u8).collect();
            for (scale, min) in [
                (0.0f32, 0.0f32),
                (0.013, -1.7),
                (2.0e-4, 0.55),
                (1.5, -200.0),
            ] {
                let mut want = gen(len, 9);
                oracle::add_assign_dequant_u8(&mut want, &q, scale, min);
                differential(&want, || {
                    let mut out = gen(len, 9);
                    add_assign_dequant_u8(&mut out, &q, scale, min);
                    out
                });
            }
        }
    }

    #[test]
    fn sum_rows_le_matches_scalar_all_tiers() {
        for len in lens() {
            for n_rows in [0usize, 1, 2, 7, 20] {
                let data = le_bytes(&gen(len * n_rows, 11));
                // Rows visited in a scrambled order (3 is coprime to
                // every row count here), the first one twice: offsets
                // need be neither sorted nor distinct.
                let mut offs: Vec<usize> = (0..n_rows)
                    .map(|r| (r * 3 + 1) % n_rows * len * 4)
                    .collect();
                offs.extend(offs.first().copied());
                let mut want = gen(len, 10);
                oracle::sum_rows_le(&mut want, &data, &offs);
                differential(&want, || {
                    let mut out = gen(len, 10);
                    sum_rows_le(&mut out, &data, &offs);
                    out
                });
                // The kernel's half-width offsets take the same path.
                let offs32: Vec<u32> = offs.iter().map(|&o| o as u32).collect();
                let mut out = gen(len, 10);
                sum_rows_le(&mut out, &data, &offs32);
                assert!(out
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sum_rows_le_panics_when_a_rows_last_block_runs_past_data() {
        // 44 = 32 + 8 + 4: the second row starts one float late, so only
        // its last, 4-wide block ends past `data` — by four bytes.
        let len = 44;
        let data = le_bytes(&gen(2 * len, 15));
        let mut out = gen(len, 16);
        sum_rows_le(&mut out, &data, &[0, 4 * len + 4]);
    }

    #[test]
    fn sum_rows_le_matches_per_row_add_assign_le() {
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

    /// The tag bit the kernel marks quantized records with.
    const TAG: u32 = 1 << 31;

    /// `(scale, min)` of the records [`mixed_rows`] writes, in turn:
    /// constant records (`scale == 0`), negative and positive `min`.
    const RECORD_PARAMS: [(f32, f32); 5] = [
        (0.0, 0.0),
        (0.013, -1.7),
        (2.0e-4, 0.55),
        (0.0, -3.25),
        (1.5, -200.0),
    ];

    /// One store holding a row of `len` values per entry of `tagged` —
    /// an f32 row where it is false, a quantized record (padded like
    /// the kernel's) where it is true — and the offsets that visit
    /// them in order, records tagged with [`TAG`].
    fn mixed_rows(len: usize, tagged: &[bool], seed: u32) -> (Vec<u8>, Vec<u32>) {
        let mut data = Vec::new();
        let mut offs = Vec::new();
        for (r, &t) in tagged.iter().enumerate() {
            let at = data.len();
            if t {
                let (scale, min) = RECORD_PARAMS[r % RECORD_PARAMS.len()];
                data.extend(scale.to_le_bytes());
                data.extend(min.to_le_bytes());
                data.extend((0..len).map(|i| ((i * 37 + r * 11) as u32 ^ seed) as u8));
                data.resize(at + crate::quant::quantized_row_bytes(len), 0);
                offs.push(at as u32 | TAG);
            } else {
                data.extend(le_bytes(&gen(len, seed.wrapping_add(r as u32))));
                offs.push(at as u32);
            }
        }
        (data, offs)
    }

    /// Which of `n` rows are records: none, all, every other one, and
    /// exactly one at each position in turn (the first and the last
    /// among them).
    fn tag_patterns(n: usize) -> Vec<Vec<bool>> {
        let mut patterns = vec![vec![false; n], vec![true; n]];
        patterns.push((0..n).map(|r| r % 2 == 1).collect());
        for p in 0..n {
            patterns.push((0..n).map(|r| r == p).collect());
        }
        patterns
    }

    #[test]
    fn sum_rows_tagged_le_matches_per_row_oracle_all_tiers() {
        for len in lens() {
            for n_rows in [0usize, 1, 2, 7] {
                for tagged in tag_patterns(n_rows) {
                    let (data, offs) = mixed_rows(len, &tagged, 17);
                    let mut want = gen(len, 18);
                    oracle::sum_rows_tagged_le(&mut want, &data, &offs, TAG);
                    differential(&want, || {
                        let mut out = gen(len, 18);
                        sum_rows_tagged_le(&mut out, &data, &offs, TAG);
                        out
                    });
                }
            }
        }
    }

    #[test]
    fn sum_rows_tagged_le_without_a_tag_is_sum_rows_le() {
        for len in lens() {
            let (data, offs) = mixed_rows(len, &[false; 9], 19);
            let mut want = gen(len, 20);
            sum_rows_le(&mut want, &data, &offs);
            // A clear tag bit on every offset, or no tag bit at all.
            for tag in [TAG, 0] {
                differential(&want, || {
                    let mut out = gen(len, 20);
                    sum_rows_tagged_le(&mut out, &data, &offs, tag);
                    out
                });
            }
        }
    }

    #[test]
    fn sum_rows_tagged_le_with_every_tag_is_chained_dequant_calls() {
        for len in lens() {
            let (data, offs) = mixed_rows(len, &[true; 9], 21);
            let mut want = gen(len, 22);
            for &o in &offs {
                let rec = &data[(o & !TAG) as usize..];
                let scale = f32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
                let min = f32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
                add_assign_dequant_u8(&mut want, &rec[8..8 + len], scale, min);
            }
            differential(&want, || {
                let mut out = gen(len, 22);
                sum_rows_tagged_le(&mut out, &data, &offs, TAG);
                out
            });
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sum_rows_tagged_le_panics_when_a_record_runs_past_data() {
        let len = 44;
        let (data, mut offs) = mixed_rows(len, &[false, true], 23);
        // The record starts eight bytes late: its last values are past
        // the end of `data`.
        offs[1] += 8;
        let mut out = gen(len, 24);
        sum_rows_tagged_le(&mut out, &data, &offs, TAG);
    }

    proptest::proptest! {
        /// The tagged gather-sum against its per-row oracle: any row
        /// width, any mix of f32 rows and records in any order, on every
        /// tier, `to_bits` equality.
        #[test]
        fn sum_rows_tagged_le_matches_per_row_oracle_on_every_tier(
            len in 0usize..=70,
            tagged in proptest::collection::vec(proptest::any::<bool>(), 0..13),
            seed in proptest::any::<u32>(),
        ) {
            let (data, offs) = mixed_rows(len, &tagged, seed);
            let start = gen(len, seed ^ 0x33);
            let mut want = start.clone();
            oracle::sum_rows_tagged_le(&mut want, &data, &offs, TAG);
            for t in capability_tiers() {
                let mut got = start.clone();
                with_tier(t, || sum_rows_tagged_le(&mut got, &data, &offs, TAG));
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    proptest::prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "tier {} len {} tags {:?} element {}: {} != {}",
                        t.as_str(), len, tagged, i, g, w
                    );
                }
            }
        }
    }

    #[test]
    fn forcing_unsupported_tier_falls_back_to_scalar() {
        let have = detect_capability();
        for want in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
            let expect = if want <= have { want } else { SimdTier::Scalar };
            assert_eq!(
                with_tier(want, tier),
                expect,
                "forcing {want:?} on a {have:?} host"
            );
        }
    }

    #[test]
    fn tier_names_are_stable() {
        assert_eq!(SimdTier::Scalar.as_str(), "scalar");
        assert_eq!(SimdTier::Avx2.as_str(), "avx2");
        assert_eq!(SimdTier::Avx512.as_str(), "avx512");
        assert!(!tier_name().is_empty());
    }
}
