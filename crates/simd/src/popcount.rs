//! Run-time selection of the hardware population count.
//!
//! Every binary dot product in the workspace is `pc(w ∧ b)` over packed
//! `u64` words. The x86-64 baseline the crates are built for has no
//! `popcnt` instruction, so `u64::count_ones` compiles to a ~12-operation
//! SSE2 bit-twiddle sequence; the instruction itself (every x86-64 CPU
//! since 2008) is one operation. aarch64 always lowers `count_ones` to
//! NEON `cnt`, so there is nothing to select there.
//!
//! The choice is made from what the code can observe — the CPU it runs
//! on — not from a build flag: a `target-cpu` in `.cargo/config` would
//! have to be repeated by every package that builds these crates (the
//! benchmark is one) and would turn a wrong guess into `SIGILL`. A
//! popcount-bound loop implements [`PopcountKernel`] once, with its body
//! marked `#[inline(always)]`; [`PopcountIsa::run`] instantiates that body
//! twice — portable, and inside a `#[target_feature(enable = "popcnt")]`
//! function — and picks one per call.

/// A loop whose cost is dominated by `u64::count_ones`.
pub trait PopcountKernel {
    /// What the loop returns.
    type Output;

    /// The loop body. Mark the implementation, and every helper it calls
    /// that counts bits, `#[inline(always)]`: only code inlined into the
    /// dispatching function is compiled with the selected instruction set.
    fn run(self) -> Self::Output;
}

/// The instruction set a [`PopcountKernel`] is run with.
///
/// The hardware value can only be obtained from [`PopcountIsa::hardware`],
/// which hands it out after detecting the instruction — holding one is the
/// proof [`PopcountIsa::run`] relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopcountIsa(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Popcnt,
}

impl PopcountIsa {
    /// The build's baseline instruction set; runs everywhere.
    pub const PORTABLE: Self = Self(Isa::Portable);

    /// The `popcnt` instantiation, if this is an x86-64 CPU with the
    /// instruction; `None` elsewhere (aarch64's baseline counts natively).
    pub fn hardware() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("popcnt") {
            return Some(Self(Isa::Popcnt));
        }
        None
    }

    /// The fastest instantiation this CPU supports.
    pub fn detect() -> Self {
        Self::hardware().unwrap_or(Self::PORTABLE)
    }

    /// Runs `kernel` compiled for this instruction set.
    // The workspace's one `unsafe`: every other crate forbids it, this one
    // denies it everywhere but here.
    #[allow(unsafe_code)]
    #[inline]
    pub fn run<K: PopcountKernel>(self, kernel: K) -> K::Output {
        /// # Safety
        ///
        /// The CPU must support the `popcnt` instruction.
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "popcnt")]
        unsafe fn run_popcnt<K: PopcountKernel>(kernel: K) -> K::Output {
            kernel.run()
        }

        match self.0 {
            Isa::Portable => kernel.run(),
            #[cfg(target_arch = "x86_64")]
            Isa::Popcnt => {
                // SAFETY: `Isa::Popcnt` is private and constructed only in
                // `hardware()`, after `is_x86_feature_detected!("popcnt")`
                // returned true on this CPU.
                unsafe { run_popcnt(kernel) }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountAll<'a>(&'a [u64]);

    impl PopcountKernel for CountAll<'_> {
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
        let expected: u32 = words
            .iter()
            .map(|w| (0..64).map(|b| (w >> b & 1) as u32).sum::<u32>())
            .sum();
        assert_eq!(PopcountIsa::PORTABLE.run(CountAll(&words)), expected);
        assert_eq!(PopcountIsa::detect().run(CountAll(&words)), expected);
        if let Some(hardware) = PopcountIsa::hardware() {
            assert_ne!(hardware, PopcountIsa::PORTABLE);
            assert_eq!(hardware.run(CountAll(&words)), expected);
        }
    }
}
