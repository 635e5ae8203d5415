//! The CPU features a build was compiled for, and the ones this CPU
//! lacks.
//!
//! The workspace's `.cargo/config.toml` builds for x86-64-v3, so the
//! compiler may emit AVX2 (8 f32 lanes) anywhere, and such a binary dies
//! on SIGILL on an older CPU. Every binary therefore calls
//! [`exit_if_cpu_lacks_target_features`] first thing, which exits with a
//! structured error instead. Results never depend on the lane width: the
//! kernels fix each element's accumulation order in their loops, and Rust
//! never contracts `a * b + c` into a fused multiply-add (DESIGN.md §12).
//!
//! The CPU is asked with CPUID directly. `is_x86_feature_detected!`
//! cannot answer here: it returns `true` for every feature the build
//! enables, without asking the CPU.

/// Which CPUID word reports a feature.
#[derive(Debug, Clone, Copy)]
enum Word {
    /// Leaf 1, ECX.
    Leaf1Ecx,
    /// Leaf 7 sub-leaf 0, EBX.
    Leaf7Ebx,
    /// Leaf 0x8000_0001, ECX.
    Ext1Ecx,
}

use Word::{Ext1Ecx, Leaf1Ecx, Leaf7Ebx};

/// One listed feature: its name, whether this build was compiled for
/// it, the CPUID word that reports it and its bit there (as a mask), and
/// whether it uses the AVX registers, which the OS must save on a context
/// switch.
type Listed = (&'static str, bool, Word, u32, bool);

macro_rules! listed_features {
    ($($feature:tt => $word:ident $bit:literal $avx_state:literal),* $(,)?) => {
        /// The x86-64-v2 and x86-64-v3 features, in the order reports
        /// list them. Baseline x86-64 (SSE2) enables none of them;
        /// x86-64-v3 enables all.
        const LISTED: &[Listed] =
            &[$(($feature, cfg!(target_feature = $feature), $word, 1 << $bit, $avx_state)),*];

        /// What the standard library's detection says of `LISTED[i]`:
        /// the oracle for the CPUID bits above wherever the build does
        /// not enable the feature (the lanes CI job's baseline build).
        #[cfg(all(test, target_arch = "x86_64"))]
        fn std_detects(i: usize) -> bool {
            match LISTED[i].0 {
                $($feature => std::arch::is_x86_feature_detected!($feature),)*
                _ => unreachable!("every listed feature has an arm"),
            }
        }
    };
}

listed_features!(
    "cmpxchg16b" => Leaf1Ecx 13 false,
    "popcnt" => Leaf1Ecx 23 false,
    "sse3" => Leaf1Ecx 0 false,
    "ssse3" => Leaf1Ecx 9 false,
    "sse4.1" => Leaf1Ecx 19 false,
    "sse4.2" => Leaf1Ecx 20 false,
    "avx" => Leaf1Ecx 28 true,
    "avx2" => Leaf7Ebx 5 true,
    "bmi1" => Leaf7Ebx 3 false,
    "bmi2" => Leaf7Ebx 8 false,
    "f16c" => Leaf1Ecx 29 true,
    "fma" => Leaf1Ecx 12 true,
    "lzcnt" => Ext1Ecx 5 false,
    "movbe" => Leaf1Ecx 22 false,
    "xsave" => Leaf1Ecx 26 false,
);

/// OSXSAVE (leaf 1 ECX): the OS enabled XSAVE, which saves the AVX
/// registers. (Reading which state it saves, XCR0, needs `unsafe`.)
const OSXSAVE: u32 = 1 << 27;

/// The CPUID words that report the listed features, or the bits some
/// features need in them.
#[derive(Debug, Clone, Copy)]
struct Cpuid {
    leaf1_ecx: u32,
    leaf7_ebx: u32,
    ext1_ecx: u32,
}

/// The bits this build's features need, folded at compile time, so the
/// check below is three mask compares.
const REQUIRED: Cpuid = {
    let mut need = Cpuid::NONE;
    let mut i = 0;
    while i < LISTED.len() {
        if LISTED[i].1 {
            need = need.or(Cpuid::of(i));
        }
        i += 1;
    }
    need
};

impl Cpuid {
    const NONE: Cpuid = Cpuid { leaf1_ecx: 0, leaf7_ebx: 0, ext1_ecx: 0 };

    /// The bits `LISTED[i]` needs: its own, and OSXSAVE if it uses the
    /// AVX registers.
    const fn of(i: usize) -> Self {
        let (_, _, word, mask, avx_state) = LISTED[i];
        let mut need = Self::NONE;
        match word {
            Leaf1Ecx => need.leaf1_ecx = mask,
            Leaf7Ebx => need.leaf7_ebx = mask,
            Ext1Ecx => need.ext1_ecx = mask,
        }
        if avx_state {
            need.leaf1_ecx |= OSXSAVE;
        }
        need
    }

    const fn or(self, other: Self) -> Self {
        Self {
            leaf1_ecx: self.leaf1_ecx | other.leaf1_ecx,
            leaf7_ebx: self.leaf7_ebx | other.leaf7_ebx,
            ext1_ecx: self.ext1_ecx | other.ext1_ecx,
        }
    }

    /// This CPU's words.
    #[cfg(target_arch = "x86_64")]
    fn read() -> Self {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        let leaf7_ebx = if __cpuid(0).eax >= 7 { __cpuid_count(7, 0).ebx } else { 0 };
        let ext1_ecx =
            if __cpuid(0x8000_0000).eax >= 0x8000_0001 { __cpuid(0x8000_0001).ecx } else { 0 };
        Self { leaf1_ecx: __cpuid(1).ecx, leaf7_ebx, ext1_ecx }
    }

    /// Whether every bit set in `need` is set here.
    fn covers(self, need: Cpuid) -> bool {
        self.leaf1_ecx & need.leaf1_ecx == need.leaf1_ecx
            && self.leaf7_ebx & need.leaf7_ebx == need.leaf7_ebx
            && self.ext1_ecx & need.ext1_ecx == need.ext1_ecx
    }

    /// Whether this CPU has `LISTED[i]`: `covers(Cpuid::of(i))`, written
    /// as single-bit tests. With `i` known only at run time, `covers`
    /// compiles to BMI instructions (`shlx`, `andn`) at v3, and this runs
    /// on the refusal path.
    fn has(self, i: usize) -> bool {
        let (_, _, word, mask, avx_state) = LISTED[i];
        let word = match word {
            Leaf1Ecx => self.leaf1_ecx,
            Leaf7Ebx => self.leaf7_ebx,
            Ext1Ecx => self.ext1_ecx,
        };
        word & mask != 0 && (!avx_state || self.leaf1_ecx & OSXSAVE != 0)
    }
}

/// The listed features this build was compiled for: empty for baseline
/// x86-64 and on other architectures, all of them for x86-64-v3.
pub fn compiled_target_features() -> Vec<&'static str> {
    LISTED.iter().filter(|f| f.1).map(|f| f.0).collect()
}

/// Ends the process with exit code 1 and an error naming the
/// compiled-in features this CPU lacks and the rebuild line, if it lacks
/// any; does nothing off x86-64. Call it before any other work: past it,
/// compiled code may use those features. The check is three mask
/// compares, and the refusal writes each name straight to stderr, so
/// neither leaves the compiler an aggregate to copy or a loop to
/// vectorize.
pub fn exit_if_cpu_lacks_target_features() {
    #[cfg(target_arch = "x86_64")]
    {
        let cpu = Cpuid::read();
        if !cpu.covers(REQUIRED) {
            refuse(cpu);
        }
    }
}

#[cold]
#[inline(never)]
fn refuse(cpu: Cpuid) -> ! {
    eprintln!("error: {}", Refusal { cpu, compiled: |i: usize| LISTED[i].1 });
    std::process::exit(1)
}

/// The refusal message: the features `compiled` selects that `cpu`
/// lacks, and the rebuild line.
struct Refusal<F> {
    cpu: Cpuid,
    compiled: F,
}

impl<F: Fn(usize) -> bool> std::fmt::Display for Refusal<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("this binary was built for CPU features this CPU lacks: ")?;
        let mut separator = "";
        for (i, feature) in LISTED.iter().enumerate() {
            if (self.compiled)(i) && !self.cpu.has(i) {
                f.write_str(separator)?;
                f.write_str(feature.0)?;
                separator = ", ";
            }
        }
        f.write_str(
            "; rebuild it for baseline x86-64 with \
             `RUSTFLAGS=\"-C target-cpu=x86-64\" cargo build --release`",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CPU whose CPUID reports every listed feature but `lacks`.
    fn cpu_without(lacks: &[&str]) -> Cpuid {
        (0..LISTED.len())
            .filter(|&i| !lacks.contains(&LISTED[i].0))
            .fold(Cpuid::NONE, |cpu, i| cpu.or(Cpuid::of(i)))
    }

    #[test]
    fn a_cpu_without_avx2_and_fma_is_refused_with_the_rebuild_line() {
        let compiled = ["sse4.2", "avx", "avx2", "fma"];
        let cpu = cpu_without(&["avx2", "fma"]);
        let message = Refusal { cpu, compiled: |i: usize| compiled.contains(&LISTED[i].0) };
        let message = message.to_string();
        assert!(message.contains("lacks: avx2, fma;"), "{message}");
        assert!(message.contains("RUSTFLAGS=\"-C target-cpu=x86-64\""), "{message}");
        for (i, feature) in LISTED.iter().enumerate() {
            assert_eq!(cpu.has(i), cpu.covers(Cpuid::of(i)), "{}", feature.0);
        }
        let avx = LISTED.iter().position(|f| f.0 == "avx").unwrap();
        assert!(cpu.has(avx));
        let no_osxsave = Cpuid { leaf1_ecx: cpu.leaf1_ecx & !OSXSAVE, ..cpu };
        assert!(!no_osxsave.has(avx), "AVX needs the OS to save its registers");
        assert!(!no_osxsave.covers(Cpuid::of(avx)));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_test_host_has_every_compiled_in_feature() {
        assert!(Cpuid::read().covers(REQUIRED), "{:?} lacks {REQUIRED:?}", Cpuid::read());
    }

    /// Where the build enables a feature, the standard library answers
    /// `true` without asking, so this compares CPUID with it only on the
    /// others: all of them in the lanes job's baseline build.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn cpuid_agrees_with_the_standard_library_where_the_build_leaves_a_feature_off() {
        let cpu = Cpuid::read();
        for (i, feature) in LISTED.iter().enumerate().filter(|(_, f)| !f.1) {
            assert_eq!(cpu.has(i), std_detects(i), "{}", feature.0);
        }
    }

    /// Compiled only where nothing past SSE2 is enabled, as in CI's
    /// `lanes` job (`RUSTFLAGS="-C target-cpu=x86-64"`), which checks
    /// that this test ran: it proves the override reached the build the
    /// job compares against the default one.
    #[cfg(all(target_arch = "x86_64", not(target_feature = "sse3")))]
    #[test]
    fn a_baseline_build_compiles_in_no_v3_feature() {
        let v3 = ["avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "lzcnt", "movbe", "xsave"];
        let compiled = compiled_target_features();
        assert!(v3.iter().all(|f| !compiled.contains(f)), "{compiled:?}");
    }
}
