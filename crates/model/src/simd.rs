//! Process-wide switch for the hand-unrolled SIMD-style kernels.
//!
//! The bit-parallel distance kernel (`cfd-repair::pricing`) and the
//! vectorized constant-pattern detection scan (`cfd-cfd::violation`) are
//! pure speedups: they return exactly the integers/hit-sets of the scalar
//! reference kernels, so repairs stay byte-identical either way. This
//! module is the escape hatch that proves it — `CFD_SIMD=0` (or the CLI
//! `--no-simd`) forces every kernel back onto the scalar reference path,
//! and the CI determinism matrix runs one corner with the flag off.
//!
//! The variable is resolved once per process. Default is **on**: the kernels need no special hardware (they
//! are plain `u64`/`u32` arithmetic on the stable toolchain).

use std::sync::OnceLock;

static RESOLVED: OnceLock<bool> = OnceLock::new();

/// Are the SIMD-style kernels enabled? Resolves `CFD_SIMD` on first use:
/// `0`/`false`/`off`/`no` disable, anything else (or unset) enables.
pub fn simd_enabled() -> bool {
    *RESOLVED.get_or_init(|| match std::env::var("CFD_SIMD") {
        Ok(raw) => !matches!(
            raw.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    })
}

/// Resolve the switch to `on` now, unless it has already been resolved
/// (first resolution wins — the switch is process-global). Returns the
/// effective value. The CLI's `--no-simd` calls this before any kernel
/// runs, so the flag behaves like setting `CFD_SIMD` in the environment.
pub fn force_simd(on: bool) -> bool {
    *RESOLVED.get_or_init(|| on)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_once_and_stays_fixed() {
        // Whatever the first resolution yields (env-dependent under the CI
        // matrix), every subsequent read must agree — including a forced
        // resolution that arrives too late to win.
        let first = simd_enabled();
        assert_eq!(simd_enabled(), first);
        assert_eq!(force_simd(!first), first);
    }
}
