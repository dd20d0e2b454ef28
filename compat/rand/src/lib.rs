//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! This workspace builds in environments with no crates.io access, so the
//! external `rand` dependency is replaced by this local crate. It implements
//! exactly the surface the workspace uses — `StdRng::seed_from_u64`,
//! `Rng::gen::<f64>()` and `Rng::gen_range(0..n)` — **bit-compatibly** with
//! rand 0.8 / rand_chacha 0.3 / rand_core 0.6:
//!
//! * `StdRng` is ChaCha12 with the rand_core `BlockRng` reading rules
//!   (word-pair reads for `next_u64`, straddling a refill at the buffer's
//!   last word). It refills sixteen consecutive blocks (256 words) at once,
//!   where rand_chacha refills four; `BlockRng` reads the keystream as one
//!   contiguous word sequence, so any buffer of whole consecutive blocks
//!   yields the same stream (see `rngs::StdRng`). The refill runs an AVX2
//!   kernel on x86_64 CPUs that have it (detected at run time) and a
//!   portable one elsewhere; both compute the same words, and
//!   [`rngs::keystream_kernel`] names the one in use;
//! * `seed_from_u64` expands the `u64` through rand_core's PCG32 stream;
//! * `gen::<f64>()` uses the 53-bit "multiply-based" `[0, 1)` conversion;
//! * `gen_range(0..n)` uses Lemire-style widening-multiply rejection with
//!   rand 0.8's `sample_single_inclusive` zone computation.
//!
//! Keeping the bit stream identical means every seed-calibrated test in the
//! simulator behaves exactly as it did against the real crate.
//!
//! The crate denies `unsafe` code. One item allows it, `Kernel::blocks`,
//! the dispatcher: its one `unsafe` expression calls the AVX2 kernel after
//! `is_x86_feature_detected!("avx2")` has found the feature. The kernel
//! itself is safe code under `#[target_feature(enable = "avx2")]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// Core RNG trait: raw generator output (mirrors `rand_core::RngCore`).
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Seedable construction (mirrors `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Creates the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed via PCG32, exactly as rand_core 0.6.
    fn seed_from_u64(mut state: u64) -> Self {
        // PCG32 constants from rand_core 0.6's `seed_from_u64`.
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// User-facing sampling helpers (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Samples a value from the standard distribution for `T`.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (half-open integer ranges).
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Types samplable from the rand `Standard` distribution.
pub trait StandardSample: Sized {
    /// Draws one standard-distributed value.
    fn sample_standard<R: RngCore>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> f64 {
        // rand 0.8 `Standard` for f64: take the top 53 bits, scale by 2^-53.
        let value = rng.next_u64() >> 11;
        value as f64 * (1.0 / ((1u64 << 53) as f64))
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    fn sample_standard<R: RngCore>(rng: &mut R) -> usize {
        // rand 0.8 samples usize as a u64 on 64-bit targets; this crate only
        // targets 64-bit hosts (checked so a 32-bit port fails loudly).
        const _: () = assert!(usize::BITS == 64, "compat rand assumes 64-bit usize");
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore>(rng: &mut R) -> bool {
        // rand 0.8: highest bit of a u32 draw.
        (rng.next_u32() >> 31) == 1
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    /// Element type produced.
    type Output;
    /// Draws one uniformly-distributed value from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for std::ops::Range<usize> {
    type Output = usize;

    fn sample_from<R: RngCore>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "cannot sample empty range");
        sample_inclusive_u64(self.start as u64, (self.end - 1) as u64, rng) as usize
    }
}

impl SampleRange for std::ops::Range<u64> {
    type Output = u64;

    fn sample_from<R: RngCore>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "cannot sample empty range");
        sample_inclusive_u64(self.start, self.end - 1, rng)
    }
}

/// rand 0.8 `UniformInt::sample_single_inclusive` for a 64-bit lane: Lemire
/// widening-multiply with the `(range << lz) - 1` acceptance zone.
fn sample_inclusive_u64<R: RngCore>(low: u64, high: u64, rng: &mut R) -> u64 {
    let range = high.wrapping_sub(low).wrapping_add(1);
    if range == 0 {
        // Full span: any u64 is acceptable.
        return rng.next_u64();
    }
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let v = rng.next_u64();
        let m = (v as u128).wrapping_mul(range as u128);
        let (hi, lo) = ((m >> 64) as u64, m as u64);
        if lo <= zone {
            return low.wrapping_add(hi);
        }
    }
}

pub mod rngs {
    //! Concrete generators (mirrors `rand::rngs`).

    use super::{RngCore, SeedableRng};

    /// ChaCha blocks computed per refill. Both kernels keep word *w* of
    /// every block in one row, so a quarter round is one step across the
    /// blocks. The portable kernel's rows are `[u32; BLOCKS]` loops, which
    /// LLVM's loop vectoriser compiles to SSE2 on the x86_64 baseline; the
    /// AVX2 kernel's are `__m256i` registers, two 8-lane passes a refill.
    /// Timed side by side on a 2-vCPU Xeon, the AVX2 kernel took ~27 ns a
    /// block and the portable one ~75 ns; the same kind of host, when
    /// faster, has timed the portable kernel at ~37 ns against ~75 ns for
    /// the scalar block. For the portable kernel, 4 blocks gained ~10 % per
    /// `next_u32` draw and 8 ran no faster than scalar; a loop per half
    /// round (`a += b`, then `d ^= a; d <<<= r`) is not vectorised: LLVM
    /// keeps every rotate scalar.
    const BLOCKS: usize = 16;

    /// Output words per refill: `BLOCKS` whole, consecutive blocks.
    const WORDS: usize = BLOCKS * 16;

    /// ChaCha12: six double rounds.
    const DOUBLE_ROUNDS: u32 = 6;

    /// The ChaCha constants, words 0–3 of every block.
    const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];

    /// A keystream kernel. `StdRng` refills through [`Kernel::detect`]'s;
    /// every kernel computes the same words.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Kernel {
        /// [`portable_blocks`]: any host.
        Portable,
        /// [`avx2::blocks`]: x86_64 hosts whose CPU has AVX2.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        Avx2,
    }

    impl Kernel {
        /// The fastest kernel this host runs: AVX2 where the CPU has it.
        pub(crate) fn detect() -> Kernel {
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
            Kernel::Portable
        }

        /// The kernel's name, as [`keystream_kernel`] reports it.
        pub(crate) fn name(self) -> &'static str {
            match self {
                Kernel::Portable => "portable",
                #[cfg(all(target_arch = "x86_64", not(miri)))]
                Kernel::Avx2 => "avx2",
            }
        }

        /// `BLOCKS` consecutive ChaCha blocks starting at block `counter`,
        /// in rand_chacha's layout (64-bit block counter in words 12–13,
        /// wrapping; 64-bit stream id, zero here, in words 14–15), written
        /// into `out` block after block, each block's words in order. A
        /// kernel the CPU cannot run (never one `detect` returned) falls
        /// back to the portable one.
        #[allow(unsafe_code)]
        pub(crate) fn blocks(
            self,
            key: &[u32; 8],
            counter: u64,
            double_rounds: u32,
            out: &mut [u32; WORDS],
        ) {
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            if self == Kernel::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2, the one feature the kernel enables, was detected just above.
                return unsafe { avx2::blocks(key, counter, double_rounds, out) };
            }
            portable_blocks(key, counter, double_rounds, out);
        }
    }

    /// The keystream kernel `StdRng` refills through on this host:
    /// `"avx2"` or `"portable"`. Both give the same stream; a throughput
    /// figure read on a host without AVX2 is slower for this reason.
    pub fn keystream_kernel() -> &'static str {
        Kernel::detect().name()
    }

    /// Portable kernel state, word-major: `rows[w][b]` is word `w` of
    /// block `b`.
    type Rows = [[u32; BLOCKS]; 16];

    /// One quarter round in every block at once.
    // One lane index across four rows is the shape LLVM vectorises.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
    fn quarter_round(x: &mut Rows, a: usize, b: usize, c: usize, d: usize) {
        for i in 0..BLOCKS {
            let (mut va, mut vb, mut vc, mut vd) = (x[a][i], x[b][i], x[c][i], x[d][i]);
            va = va.wrapping_add(vb);
            vd = (vd ^ va).rotate_left(16);
            vc = vc.wrapping_add(vd);
            vb = (vb ^ vc).rotate_left(12);
            va = va.wrapping_add(vb);
            vd = (vd ^ va).rotate_left(8);
            vc = vc.wrapping_add(vd);
            vb = (vb ^ vc).rotate_left(7);
            (x[a][i], x[b][i], x[c][i], x[d][i]) = (va, vb, vc, vd);
        }
    }

    /// The portable kernel: [`Kernel::blocks`] in safe, target-independent
    /// code.
    fn portable_blocks(key: &[u32; 8], counter: u64, double_rounds: u32, out: &mut [u32; WORDS]) {
        let mut initial: Rows = [[0; BLOCKS]; 16];
        for (row, &word) in initial.iter_mut().zip(CONSTANTS.iter().chain(key)) {
            *row = [word; BLOCKS];
        }
        initial[12] = std::array::from_fn(|b| counter.wrapping_add(b as u64) as u32);
        initial[13] = std::array::from_fn(|b| (counter.wrapping_add(b as u64) >> 32) as u32);
        let mut x = initial;
        for _ in 0..double_rounds {
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (row, init) in x.iter_mut().zip(&initial) {
            for (w, i) in row.iter_mut().zip(init) {
                *w = w.wrapping_add(*i);
            }
        }
        for block in 0..BLOCKS {
            for word in 0..16 {
                out[block * 16 + word] = x[word][block];
            }
        }
    }

    /// The AVX2 kernel: [`Kernel::blocks`] as two passes of eight blocks,
    /// word *w* of the pass's blocks in one `__m256i`. Safe code: inside
    /// `#[target_feature(enable = "avx2")]` the intrinsics that take no
    /// pointer are safe to call, so counters come in through
    /// `_mm256_setr_epi32` and words go out through `_mm256_extract_epi32`.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    mod avx2 {
        use super::{BLOCKS, CONSTANTS, WORDS};
        use std::arch::x86_64::*;

        /// Blocks per pass: one per 32-bit lane.
        const LANES: usize = 8;

        const _: () = assert!(BLOCKS == 2 * LANES, "a refill is two passes");

        /// Rotates every word left by 16: a byte shuffle.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotate_16(v: __m256i) -> __m256i {
            let mask = _mm256_setr_epi8(
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
                2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
            );
            _mm256_shuffle_epi8(v, mask)
        }

        /// Rotates every word left by 8: a byte shuffle.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotate_8(v: __m256i) -> __m256i {
            let mask = _mm256_setr_epi8(
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
                3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
            );
            _mm256_shuffle_epi8(v, mask)
        }

        /// Rotates every word left by `L` (`R` = 32 − `L`): shift-or.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn rotate<const L: i32, const R: i32>(v: __m256i) -> __m256i {
            _mm256_or_si256(_mm256_slli_epi32::<L>(v), _mm256_srli_epi32::<R>(v))
        }

        /// One quarter round in every lane at once.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
            x[a] = _mm256_add_epi32(x[a], x[b]);
            x[d] = rotate_16(_mm256_xor_si256(x[d], x[a]));
            x[c] = _mm256_add_epi32(x[c], x[d]);
            x[b] = rotate::<12, 20>(_mm256_xor_si256(x[b], x[c]));
            x[a] = _mm256_add_epi32(x[a], x[b]);
            x[d] = rotate_8(_mm256_xor_si256(x[d], x[a]));
            x[c] = _mm256_add_epi32(x[c], x[d]);
            x[b] = rotate::<7, 25>(_mm256_xor_si256(x[b], x[c]));
        }

        /// The vector whose lanes 0–7 are `w`, in order.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn from_lanes(w: [u32; LANES]) -> __m256i {
            let w = w.map(|word| word as i32);
            _mm256_setr_epi32(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
        }

        /// Lanes 0–7 of `v`, in order.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn lanes(v: __m256i) -> [u32; LANES] {
            [
                _mm256_extract_epi32::<0>(v) as u32,
                _mm256_extract_epi32::<1>(v) as u32,
                _mm256_extract_epi32::<2>(v) as u32,
                _mm256_extract_epi32::<3>(v) as u32,
                _mm256_extract_epi32::<4>(v) as u32,
                _mm256_extract_epi32::<5>(v) as u32,
                _mm256_extract_epi32::<6>(v) as u32,
                _mm256_extract_epi32::<7>(v) as u32,
            ]
        }

        /// Transposes eight rows of eight words: lane `b` of `rows[w]`
        /// becomes lane `w` of the result's `b`th.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn transpose(rows: &[__m256i]) -> [__m256i; LANES] {
            let t: [__m256i; LANES] = std::array::from_fn(|i| {
                let (r0, r1) = (rows[i & !1], rows[i | 1]);
                if i % 2 == 0 {
                    _mm256_unpacklo_epi32(r0, r1)
                } else {
                    _mm256_unpackhi_epi32(r0, r1)
                }
            });
            // t[2k] holds rows 2k, 2k+1 at lanes 0, 1, 4, 5; t[2k+1] at 2, 3, 6, 7.
            let q: [__m256i; LANES] = std::array::from_fn(|i| {
                let (group, lane) = (i / 4 * 4, i % 4);
                let (t0, t1) = (t[group + lane / 2], t[group + 2 + lane / 2]);
                if lane % 2 == 0 {
                    _mm256_unpacklo_epi64(t0, t1)
                } else {
                    _mm256_unpackhi_epi64(t0, t1)
                }
            });
            // q[4g + l] holds rows 4g..4g+3 at lanes l and l + 4.
            std::array::from_fn(|b| {
                if b < 4 {
                    _mm256_permute2x128_si256::<0x20>(q[b], q[4 + b])
                } else {
                    _mm256_permute2x128_si256::<0x31>(q[b - 4], q[b])
                }
            })
        }

        /// [`super::Kernel::blocks`] on eight 32-bit lanes.
        #[target_feature(enable = "avx2")]
        pub(super) fn blocks(
            key: &[u32; 8],
            counter: u64,
            double_rounds: u32,
            out: &mut [u32; WORDS],
        ) {
            for (pass, out) in out.chunks_exact_mut(LANES * 16).enumerate() {
                let blocks: [u64; LANES] =
                    std::array::from_fn(|b| counter.wrapping_add((pass * LANES + b) as u64));
                let mut initial = [_mm256_setzero_si256(); 16];
                for (row, &word) in initial.iter_mut().zip(CONSTANTS.iter().chain(key)) {
                    *row = _mm256_set1_epi32(word as i32);
                }
                initial[12] = from_lanes(blocks.map(|block| block as u32));
                initial[13] = from_lanes(blocks.map(|block| (block >> 32) as u32));
                let mut x = initial;
                for _ in 0..double_rounds {
                    quarter_round(&mut x, 0, 4, 8, 12);
                    quarter_round(&mut x, 1, 5, 9, 13);
                    quarter_round(&mut x, 2, 6, 10, 14);
                    quarter_round(&mut x, 3, 7, 11, 15);
                    quarter_round(&mut x, 0, 5, 10, 15);
                    quarter_round(&mut x, 1, 6, 11, 12);
                    quarter_round(&mut x, 2, 7, 8, 13);
                    quarter_round(&mut x, 3, 4, 9, 14);
                }
                for (w, init) in x.iter_mut().zip(initial) {
                    *w = _mm256_add_epi32(*w, init);
                }
                // Block-major out: block b's words 0–7, then its words 8–15.
                let (front, back) = (transpose(&x[..LANES]), transpose(&x[LANES..]));
                for (b, words) in out.chunks_exact_mut(16).enumerate() {
                    words[..LANES].copy_from_slice(&lanes(front[b]));
                    words[LANES..].copy_from_slice(&lanes(back[b]));
                }
            }
        }
    }

    /// The standard RNG: ChaCha12 behind rand_core's `BlockRng`, buffering
    /// sixteen ChaCha blocks (256 output words) per refill.
    ///
    /// The buffer size does not change the output. `BlockRng` reads the
    /// keystream as one contiguous word sequence: `next_u32` takes the next
    /// word, `next_u64` the next two (low word first), and at the buffer's
    /// last word `next_u64` pairs it with the refill's word 0, which is the
    /// next stream word. A buffer of whole consecutive blocks therefore
    /// yields the same sequence as rand_chacha's four-block buffer, for
    /// every interleaving of draw widths.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        key: [u32; 8],
        counter: u64,
        results: [u32; WORDS],
        index: usize,
    }

    impl StdRng {
        /// Refills the buffer and positions the cursor at `index`.
        fn generate_and_set(&mut self, index: usize) {
            Kernel::detect().blocks(&self.key, self.counter, DOUBLE_ROUNDS, &mut self.results);
            self.counter = self.counter.wrapping_add(BLOCKS as u64);
            self.index = index;
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let mut key = [0u32; 8];
            for (i, chunk) in seed.chunks_exact(4).enumerate() {
                key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            }
            StdRng {
                key,
                counter: 0,
                results: [0; WORDS],
                index: WORDS, // empty buffer: first draw triggers a refill
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            if self.index >= WORDS {
                self.generate_and_set(0);
            }
            let value = self.results[self.index];
            self.index += 1;
            value
        }

        fn next_u64(&mut self) -> u64 {
            // Exactly rand_core 0.6 BlockRng::next_u64 word-pair semantics.
            let index = self.index;
            if index < WORDS - 1 {
                self.index += 2;
                (u64::from(self.results[index + 1]) << 32) | u64::from(self.results[index])
            } else if index >= WORDS {
                self.generate_and_set(2);
                (u64::from(self.results[1]) << 32) | u64::from(self.results[0])
            } else {
                let x = u64::from(self.results[WORDS - 1]);
                self.generate_and_set(1);
                (u64::from(self.results[0]) << 32) | x
            }
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(4) {
                let word = self.next_u32().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{Kernel, StdRng};
    use super::{Rng, RngCore, SeedableRng};

    /// ChaCha quarter round on one block.
    fn qr(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    /// The scalar ChaCha block, the oracle the 16-block kernel is held to:
    /// rand_chacha's layout, 64-bit block counter in words 12–13, 64-bit
    /// stream id (zero here) in words 14–15.
    fn chacha_block(key: &[u32; 8], counter: u64, double_rounds: u32) -> [u32; 16] {
        const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];
        let mut x = [0u32; 16];
        x[..4].copy_from_slice(&CONSTANTS);
        x[4..12].copy_from_slice(key);
        x[12] = counter as u32;
        x[13] = (counter >> 32) as u32;
        let initial = x;
        for _ in 0..double_rounds {
            qr(&mut x, 0, 4, 8, 12);
            qr(&mut x, 1, 5, 9, 13);
            qr(&mut x, 2, 6, 10, 14);
            qr(&mut x, 3, 7, 11, 15);
            qr(&mut x, 0, 5, 10, 15);
            qr(&mut x, 1, 6, 11, 12);
            qr(&mut x, 2, 7, 8, 13);
            qr(&mut x, 3, 4, 9, 14);
        }
        for (w, init) in x.iter_mut().zip(initial) {
            *w = w.wrapping_add(init);
        }
        x
    }

    /// A seed with no repeated word, and the key `from_seed` makes of it.
    fn test_seed() -> ([u8; 32], [u32; 8]) {
        let seed: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5A);
        let key = std::array::from_fn(|i| {
            u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().expect("4-byte chunk"))
        });
        (seed, key)
    }

    /// The kernels the host runs, each called directly: the portable one
    /// always, and the detected one when it differs, so a host with AVX2
    /// tests both. Says so when it has only the portable kernel.
    fn kernels() -> Vec<Kernel> {
        let detected = Kernel::detect();
        if detected == Kernel::Portable {
            println!("AVX2 kernel skipped: not built for this target or no AVX2 on this CPU");
            return vec![Kernel::Portable];
        }
        vec![Kernel::Portable, detected]
    }

    #[test]
    fn chacha20_zero_key_reference_block() {
        // The permutation, state layout and output order are validated with
        // 10 double rounds against the well-known ChaCha20 all-zero-key
        // keystream (first bytes 76 b8 e0 ad a0 f1 3d 90 ...); ChaCha12 as
        // used by StdRng differs only in the round count.
        const REFERENCE: [u32; 4] = [0xADE0_B876, 0x903D_F1A0, 0xE56A_5D40, 0x28BD_8653];
        assert_eq!(chacha_block(&[0u32; 8], 0, 10)[..4], REFERENCE);
        for kernel in kernels() {
            let mut out = [0; 256];
            kernel.blocks(&[0u32; 8], 0, 10, &mut out);
            assert_eq!(
                out[..4],
                REFERENCE,
                "lane 0 of the {} kernel",
                kernel.name()
            );
        }
    }

    #[test]
    fn every_kernel_lane_equals_the_scalar_block() {
        let (_, key) = test_seed();
        // 2^32 - 1 carries into word 13 from lane 1 on; 2^32 - 9 carries at
        // lane 9, in the AVX2 kernel's second pass; u64::MAX - 7 wraps to
        // block 0 at lane 8.
        let counters = [0, 1, (1u64 << 32) - 1, (1u64 << 32) - 9, u64::MAX - 7];
        for kernel in kernels() {
            for counter in counters {
                for double_rounds in [6, 10] {
                    let mut out = [0; 256];
                    kernel.blocks(&key, counter, double_rounds, &mut out);
                    for (lane, words) in out.chunks_exact(16).enumerate() {
                        let block = counter.wrapping_add(lane as u64);
                        assert_eq!(
                            words,
                            chacha_block(&key, block, double_rounds),
                            "{} kernel, counter {counter:#x}, lane {lane}, \
                             {double_rounds} double rounds",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }

    /// The keystream as rand_core reads it: one contiguous word sequence,
    /// scalar blocks from counter 0, one word per `next_u32` and two (low
    /// first) per `next_u64`. Records where each `next_u64` started.
    struct Oracle {
        words: Vec<u32>,
        at: usize,
        u64_starts: Vec<usize>,
    }

    impl RngCore for Oracle {
        fn next_u32(&mut self) -> u32 {
            self.at += 1;
            self.words[self.at - 1]
        }

        fn next_u64(&mut self) -> u64 {
            self.u64_starts.push(self.at);
            let low = self.next_u32();
            (u64::from(self.next_u32()) << 32) | u64::from(low)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(4) {
                chunk.copy_from_slice(&self.next_u32().to_le_bytes()[..chunk.len()]);
            }
        }
    }

    /// Step `i` of a scripted mix of draw widths, as bytes.
    fn draw(rng: &mut impl RngCore, i: usize) -> Vec<u8> {
        match i % 7 {
            0 => rng.next_u32().to_le_bytes().to_vec(),
            1 | 5 => rng.next_u64().to_le_bytes().to_vec(),
            2 => rng.gen_range(0..1_000_003u64).to_le_bytes().to_vec(),
            3 => rng.gen::<f64>().to_bits().to_le_bytes().to_vec(),
            4 => {
                let mut bytes = vec![0; 2 * (i % 5) + 1];
                rng.fill_bytes(&mut bytes);
                bytes
            }
            _ => rng.gen_range(0..7usize).to_le_bytes().to_vec(),
        }
    }

    #[test]
    fn mixed_width_draws_read_the_contiguous_keystream() {
        const WORDS: usize = 4096;
        let (seed, key) = test_seed();
        let mut rng = StdRng::from_seed(seed);
        let mut oracle = Oracle {
            words: (0..)
                .flat_map(|c| chacha_block(&key, c, 6))
                .take(WORDS + 64)
                .collect(),
            at: 0,
            u64_starts: Vec::new(),
        };
        let mut i = 0;
        while oracle.at < WORDS {
            assert_eq!(
                draw(&mut rng, i),
                draw(&mut oracle, i),
                "step {i}, word {}",
                oracle.at
            );
            i += 1;
        }
        // The script must meet both kinds of buffer boundary with a u64
        // that straddles it (odd position) and with one that starts on it
        // (even position).
        let at_256 = |m: usize| m > 0 && m.is_multiple_of(256);
        let at_64_only = |m: usize| m.is_multiple_of(64) && !m.is_multiple_of(256);
        for (name, boundary) in [
            ("256-word", at_256 as fn(usize) -> bool),
            ("64-word", at_64_only),
        ] {
            let starts = &oracle.u64_starts;
            assert!(
                starts.iter().any(|&s| boundary(s + 1)),
                "no u64 straddles a {name} boundary"
            );
            assert!(
                starts.iter().any(|&s| boundary(s)),
                "no u64 starts on a {name} boundary"
            );
        }
    }

    #[test]
    fn seed_from_u64_is_stable() {
        // Pinned from the four-block buffer, so neither the seed expansion
        // nor the keystream can change silently.
        let pinned: [(u64, [u64; 8]); 3] = [
            (
                0,
                [
                    0xBB2A_3FB2_CD2C_6F7F,
                    0xC601_7C94_8E27_697B,
                    0x069D_C102_CF31_0A16,
                    0x958B_761D_ABE5_F6D0,
                    0x431D_9D54_DEE1_7B11,
                    0xC5A0_EF11_1F71_C422,
                    0x37FC_854F_1203_7913,
                    0xCB30_CE1A_C9FF_61C7,
                ],
            ),
            (
                7,
                [
                    0x07C2_E0E9_6AA8_FBBE,
                    0x4E9D_34E8_247E_5F86,
                    0x2484_3246_0F8B_BCCD,
                    0x8AE2_6805_A6DF_A099,
                    0x45C2_61AD_9E62_21B6,
                    0xF37D_574F_BCB0_6BE0,
                    0x2CEB_0DAB_9897_F4D2,
                    0x41BB_69A0_BE5A_DE8A,
                ],
            ),
            (
                42,
                [
                    0x86CC_7763_2227_24A2,
                    0x8AF0_0A13_3FAD_517D,
                    0xA2EF_6071_DE51_34D1,
                    0x67E9_2D78_FD76_30B2,
                    0x08CA_B0DF_F811_9FEA,
                    0x6A3A_9CA3_9E0F_81A8,
                    0xBCC7_D8E8_5908_78FB,
                    0xD968_8D9B_2F8E_B737,
                ],
            ),
        ];
        for (seed, expected) in pinned {
            let mut rng = StdRng::seed_from_u64(seed);
            let drawn: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(drawn, expected, "seed {seed}");
        }
    }

    #[test]
    fn f64_standard_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = [false; 7];
        for _ in 0..300 {
            seen[rng.gen_range(0..7usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn word_pair_reads_cross_buffer_boundary() {
        // A u64 starting at word 63 straddles the four-block buffer rand_chacha
        // refills; one starting at word 255 straddles the sixteen-block one.
        // Both values are pinned from the four-block buffer.
        for (at, expected) in [(63, 0xEE66_B7A9_E373_BD00), (255, 0x78E6_1497_7AB1_9EDD)] {
            let mut rng = StdRng::seed_from_u64(42);
            for _ in 0..at {
                rng.next_u32();
            }
            assert_eq!(rng.next_u64(), expected, "u64 at word {at}");
        }
    }
}
