//! Run-time selection of the instruction set a frame's host kernels run
//! with.
//!
//! The x86-64 baseline the crates are built for is SSE2: no `popcnt`
//! instruction, so `u64::count_ones` compiles to a ~12-operation bit-twiddle
//! sequence, and no vector wider than 128 bits. The instruction itself
//! (every x86-64 CPU since 2008) is one operation for one word; AVX-512
//! `VPOPCNTDQ` counts eight words in one operation, and AVX-512 `BW` widens
//! the 16-bit multiply-adds and 8/16-bit lanes of the 8-bit convolutions
//! to 512 bits. aarch64 always lowers `count_ones` to NEON `cnt` and has
//! NEON as its baseline, so there is nothing to select there.
//!
//! What runs under the selected arm is every host kernel of a served frame
//! whose cost is vector or popcount work: the AND-popcount loops of the
//! binary layers with their max-pool (`tincy-kernels`, `tincy-finn`'s
//! MVTU), the 8-bit convolutions
//! ([`crate::FirstLayerKernel::accumulate_i32`], [`crate::gemm_lowp`])
//! with their input quantizer and epilogue (`tincy-nn`), and the fabric
//! interface's quantizers (`tincy-finn`).
//! Every operation in them is integer or IEEE `f32` arithmetic, which Rust
//! never contracts or reassociates, so the arm changes how fast they run,
//! never an output bit.
//!
//! The choice is made from what the code can observe — the CPU it runs
//! on — not from a build flag: a `target-cpu` in `.cargo/config` would
//! have to be repeated by every package that builds these crates (the
//! benchmark is one) and would turn a wrong guess into `SIGILL`. A kernel
//! implements [`IsaKernel`] once, with its body marked `#[inline(always)]`;
//! [`Isa::run`] instantiates that body three times — portable, inside a
//! `#[target_feature(enable = "popcnt")]` function, and inside one that
//! also enables `avx512f`, `avx512bw` and `avx512vpopcntdq` — and picks
//! one per call. [`Isa::supported`] lists the ones this CPU can run and
//! [`Isa::detect`] takes the last, so a CPU without `VPOPCNTDQ` runs the
//! `popcnt` one.
//!
//! There is no AVX2 instantiation: AVX2 has no vector population count,
//! and the nibble-table count it compiles to did not beat one `popcnt` a
//! word on the product's layers.

/// A host kernel whose cost is vector or popcount work.
pub trait IsaKernel {
    /// What the loop returns.
    type Output;

    /// The loop body. Mark the implementation, and every helper it calls
    /// that counts bits, `#[inline(always)]`: only code inlined into the
    /// dispatching function is compiled with the selected instruction set.
    fn run(self) -> Self::Output;
}

/// The instruction set an [`IsaKernel`] is run with.
///
/// A value other than [`Isa::PORTABLE`] can only be obtained from
/// [`Isa::supported`], which hands it out after detecting every feature it
/// is compiled for — holding one is the proof [`Isa::run`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa(Arm);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Popcnt,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The build's baseline instruction set; runs everywhere.
    pub const PORTABLE: Self = Self(Arm::Portable);

    /// Every instantiation this CPU can run, slowest first: the portable
    /// one, then on x86-64 the `popcnt` one if the CPU has the instruction,
    /// then the AVX-512 one if it also has `avx512f`, `avx512bw` and
    /// `avx512vpopcntdq`. aarch64's baseline counts natively, so it has
    /// only the first.
    pub fn supported() -> impl Iterator<Item = Self> {
        #[cfg(target_arch = "x86_64")]
        let arms = {
            use std::is_x86_feature_detected as has;
            let popcnt = has!("popcnt");
            let avx512 = popcnt && has!("avx512f") && has!("avx512bw") && has!("avx512vpopcntdq");
            [(Arm::Popcnt, popcnt), (Arm::Avx512, avx512)]
        };
        #[cfg(not(target_arch = "x86_64"))]
        let arms: [(Arm, bool); 0] = [];
        let detected = arms.into_iter().filter(|&(_, has)| has);
        std::iter::once(Self::PORTABLE).chain(detected.map(|(arm, _)| Self(arm)))
    }

    /// The fastest instantiation this CPU supports: the last of
    /// [`Isa::supported`].
    pub fn detect() -> Self {
        Self::supported().last().unwrap_or(Self::PORTABLE)
    }

    /// Runs `kernel` compiled for this instruction set.
    // The workspace's one `unsafe` item: every other crate forbids it,
    // this one denies it everywhere but here.
    #[allow(unsafe_code)]
    #[inline]
    pub fn run<K: IsaKernel>(self, kernel: K) -> K::Output {
        /// # Safety
        ///
        /// The CPU must support the `popcnt` instruction.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "popcnt")]
        unsafe fn run_popcnt<K: IsaKernel>(kernel: K) -> K::Output {
            kernel.run()
        }

        /// # Safety
        ///
        /// The CPU must support `popcnt`, `avx512f`, `avx512bw` and
        /// `avx512vpopcntdq`.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "popcnt,avx512f,avx512bw,avx512vpopcntdq")]
        unsafe fn run_avx512<K: IsaKernel>(kernel: K) -> K::Output {
            kernel.run()
        }

        match self.0 {
            Arm::Portable => kernel.run(),
            // SAFETY: `Arm` is private, and `supported()` constructs
            // `Arm::Popcnt` only after `is_x86_feature_detected!("popcnt")`
            // returned true on this CPU.
            #[cfg(target_arch = "x86_64")]
            Arm::Popcnt => unsafe { run_popcnt(kernel) },
            // SAFETY: `Arm` is private, and `supported()` constructs
            // `Arm::Avx512` only after `is_x86_feature_detected!` returned
            // true on this CPU for `popcnt`, `avx512f`, `avx512bw` and
            // `avx512vpopcntdq`.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => unsafe { run_avx512(kernel) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountAll<'a>(&'a [u64]);

    impl IsaKernel for CountAll<'_> {
        type Output = u32;

        #[inline(always)]
        fn run(self) -> u32 {
            let mut total = 0;
            for &word in self.0 {
                total += word.count_ones();
            }
            total
        }
    }

    #[test]
    fn every_instantiation_counts_the_same_bits() {
        let words: Vec<u64> = (0..257u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i << 17))
            .collect();
        let supported: Vec<Isa> = Isa::supported().collect();
        assert_eq!(supported[0], Isa::PORTABLE);
        assert_eq!(supported.last(), Some(&Isa::detect()));
        for (i, isa) in supported.iter().enumerate() {
            assert!(!supported[..i].contains(isa), "{isa:?} listed twice");
            // Every length up to a few 512-bit vectors and a tail.
            for len in [0, 1, 7, 8, 9, 31, 257] {
                let expected: u32 = words[..len]
                    .iter()
                    .map(|w| (0..64).map(|b| (w >> b & 1) as u32).sum::<u32>())
                    .sum();
                assert_eq!(isa.run(CountAll(&words[..len])), expected, "{isa:?} {len}");
            }
        }
    }
}
