//! Kernel oracle suite: the bit-parallel distance kernel against the
//! scalar reference OSA.
//!
//! Pricing (`cfd_repair::pricing::TargetPricer`, behind `dl_distance`,
//! `dl_distance_bounded` and every `DistanceCache` miss) runs the
//! Myers/Hyyrö bit-parallel DP for targets of at most 64 characters and
//! the scalar OSA past that. Repairs depend on the kernel only through
//! the integers it returns, so this suite pins those integers to
//! `dl_distance_reference` on seeded random strings — ASCII, multibyte
//! UTF-8, empty, >64-char values crossing the u64 word boundary, and
//! transposition-heavy typo strings — for both the exact and the bounded
//! (cutoff) form.
//!
//! Seeded trials via `cfd_prng`; failures reproduce exactly from the seed.

use cfd_prng::{trials, ChaCha8Rng, Rng};

use cfdclean::repair::distance::{dl_distance, dl_distance_bounded, dl_distance_reference};
use cfdclean::repair::pricing::TargetPricer;

/// Assert kernel agreement on one pair: exact distance, and the bounded
/// form's exact `Some(d) iff d ≤ cutoff` semantics around the distance.
fn assert_kernels_agree(a: &str, b: &str) {
    let want = dl_distance_reference(a, b);
    let p = TargetPricer::new(a);
    assert_eq!(p.distance(b), want, "bitparallel {a:?} vs {b:?}");
    for cutoff in want.saturating_sub(2)..=want + 2 {
        let got = p.distance_bounded(b, cutoff);
        let expect = if want <= cutoff { Some(want) } else { None };
        assert_eq!(got, expect, "bounded {a:?} vs {b:?} cutoff {cutoff}");
    }
    // The public entry points price through the same kernel.
    assert_eq!(dl_distance(a, b), want);
    assert_eq!(
        dl_distance_bounded(a, b, want),
        Some(want),
        "dl_distance_bounded at the exact distance {a:?} vs {b:?}"
    );
}

fn rand_ascii(rng: &mut ChaCha8Rng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| char::from(b'a' + rng.gen_range(0..9u32) as u8))
        .collect()
}

fn rand_multibyte(rng: &mut ChaCha8Rng, max_len: usize) -> String {
    const PALETTE: [char; 12] = ['a', 'b', 'é', 'ü', 'ß', '日', '本', 'č', 'x', 'ø', 'λ', '9'];
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

/// A typo-heavy variant of `s`: a few adjacent transpositions plus an
/// occasional substitution — the noise model the OSA extension exists for.
fn transpose_noise(rng: &mut ChaCha8Rng, s: &str) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    if chars.len() >= 2 {
        for _ in 0..rng.gen_range(1..4usize) {
            let i = rng.gen_range(0..chars.len() - 1);
            chars.swap(i, i + 1);
        }
    }
    if !chars.is_empty() && rng.gen_bool(0.5) {
        let i = rng.gen_range(0..chars.len());
        chars[i] = char::from(b'a' + rng.gen_range(0..9u32) as u8);
    }
    chars.into_iter().collect()
}

#[test]
fn bitparallel_matches_reference_ascii() {
    trials(400, 0x51AD_A5C1, |rng| {
        let a = rand_ascii(rng, 24);
        let b = rand_ascii(rng, 24);
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&a, &transpose_noise(rng, &a));
    });
}

#[test]
fn bitparallel_matches_reference_multibyte() {
    trials(300, 0x51AD_0075, |rng| {
        let a = rand_multibyte(rng, 16);
        // Mixed pairings: multibyte/multibyte and multibyte/ASCII, so the
        // ASCII fast path's zero-mask handling of non-ASCII candidates is
        // exercised from both sides.
        let b = if rng.gen_bool(0.5) {
            rand_multibyte(rng, 16)
        } else {
            rand_ascii(rng, 16)
        };
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&b, &a);
        assert_kernels_agree(&a, "");
        assert_kernels_agree("", &a);
    });
}

#[test]
fn bitparallel_matches_reference_across_word_boundary() {
    trials(150, 0x51AD_B0DD, |rng| {
        // Targets straddling the 64-char single-word limit: 60..=70 plus
        // an occasional ~120-char value. Past 64 the pricer falls back to
        // the scalar kernel; both sides of the seam must agree with the
        // reference and with each other.
        let len = if rng.gen_bool(0.2) {
            rng.gen_range(110..130usize)
        } else {
            rng.gen_range(60..=70usize)
        };
        let a: String = (0..len)
            .map(|_| char::from(b'a' + rng.gen_range(0..5u32) as u8))
            .collect();
        let b = transpose_noise(rng, &a);
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&b, &a);
        assert_kernels_agree(&a, &rand_ascii(rng, 80));
    });
}

#[test]
fn bitparallel_matches_reference_transposition_heavy() {
    trials(300, 0x51AD_7A95, |rng| {
        // Tiny alphabet → dense repeats → the `pm_prev`/`d0_prev` carry
        // chain is constantly active.
        let len = rng.gen_range(2..20usize);
        let a: String = (0..len)
            .map(|_| char::from(b'a' + rng.gen_range(0..3u32) as u8))
            .collect();
        let b = transpose_noise(rng, &a);
        let c: String = a.chars().rev().collect();
        assert_kernels_agree(&a, &b);
        assert_kernels_agree(&a, &c);
    });
}
