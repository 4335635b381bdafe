//! An exact binomial sampler: what deals a node's shots between its two
//! outcomes in one draw, however many shots there are.
//!
//! [`binomial`] draws Binomial(n, p) with the classical pair numpy's
//! `random_binomial` also uses: inversion (BINV) when the smaller side's
//! mean `n·min(p, 1 − p)` is below 30, and BTPE (Kachitvichyanukul &
//! Schmeiser, "Binomial random variate generation", CACM 31(2), 1988)
//! above it, both on the smaller side and mirrored for `p > ½`. Its cost is
//! O(mean) below the switch and O(1) expected above it — never O(n).
//!
//! It terminates on any [`Rng`], even one that returns the same word
//! forever: inversion walks on towards `n` where numpy's restarts, and BTPE
//! gives up after [`MAX_REJECTIONS`] consecutive rejections.

use rand::Rng;

/// Below this mean of the smaller side inversion is cheaper than BTPE's
/// setup; at or above it BTPE's O(1) expected cost wins.
const INVERSION_MEAN: f64 = 30.0;

/// Consecutive BTPE rejections after which the mode is returned. BTPE
/// rejects under half of its proposals (about 43 % at its worst, `n·p` just
/// above 30 with `p = ½`), so a uniform source makes this many in a row
/// with probability below 2^-150; only a degenerate source (a constant word,
/// say) gets here, and it must still terminate.
const MAX_REJECTIONS: u32 = 128;

/// One draw of Binomial(`n`, `p`): the number of successes in `n`
/// independent trials of probability `p`. `p ≤ 0` or NaN returns 0 and
/// `p ≥ 1` returns `n`, without touching `rng`.
pub(crate) fn binomial(rng: &mut impl Rng, n: u64, p: f64) -> u64 {
    if n == 0 || p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let r = p.min(1.0 - p);
    let k = if n as f64 * r < INVERSION_MEAN { inversion(rng, n, r) } else { btpe(rng, n, r) };
    if p > 0.5 {
        n - k
    } else {
        k
    }
}

/// BINV: walks the cdf up from 0 with one uniform. `0 < p ≤ ½` and
/// `n·p < 30`, so `(1 − p)^n ≥ e^-30` and the walk ends within a few
/// hundred steps: at the first `x` whose cdf reaches the uniform, or where
/// the pmf underflows — the tail past it holds no representable mass, and a
/// uniform that rounding left above the summed pmf lands on its last
/// outcome of positive mass instead of restarting — or at `n`.
fn inversion(rng: &mut impl Rng, n: u64, p: f64) -> u64 {
    let odds = p / (1.0 - p);
    let mut pmf = (n as f64 * (-p).ln_1p()).exp();
    let mut u = rng.gen::<f64>();
    let mut x = 0;
    while u > pmf && x < n {
        let next = pmf * odds * (n - x) as f64 / (x + 1) as f64;
        if next == 0.0 {
            break;
        }
        u -= pmf;
        pmf = next;
        x += 1;
    }
    x
}

/// BTPE: a triangle, two parallelograms and two exponential tails dominate
/// the pmf around its mode; a proposal is accepted outright inside the
/// triangle, and elsewhere against the pmf ratio — evaluated directly near
/// the mode, bounded by Stirling's series (with a squeeze) far from it.
/// `0 < p ≤ ½` and `n·p ≥ 30`.
fn btpe(rng: &mut impl Rng, n: u64, p: f64) -> u64 {
    let nf = n as f64;
    let q = 1.0 - p;
    let npq = nf * p * q;
    let fm = nf * p + p;
    let m = fm.floor();
    let p1 = (2.195 * npq.sqrt() - 4.6 * q).floor() + 0.5;
    let xm = m + 0.5;
    let (xl, xr) = (xm - p1, xm + p1);
    let c = 0.134 + 20.5 / (15.3 + m);
    let a = (fm - xl) / (fm - xl * p);
    let lambda_l = a * (1.0 + a / 2.0);
    let a = (xr - fm) / (xr * q);
    let lambda_r = a * (1.0 + a / 2.0);
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;

    for _ in 0..MAX_REJECTIONS {
        let u = rng.gen::<f64>() * p4;
        let mut v = rng.gen::<f64>();
        let y = if u <= p1 {
            // the triangle: accepted outright
            return ((xm - p1 * v + u).floor() as u64).min(n);
        } else if u <= p2 {
            // the parallelograms
            let x = xl + (u - p1) / c;
            v = v * c + 1.0 - (m - x + 0.5).abs() / p1;
            if v > 1.0 {
                continue;
            }
            x.floor()
        } else if u <= p3 {
            // the left tail
            let y = (xl + v.ln() / lambda_l).floor();
            if y < 0.0 || v == 0.0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
            y
        } else {
            // the right tail
            let y = (xr - v.ln() / lambda_r).floor();
            if y > nf || v == 0.0 {
                continue;
            }
            v *= (u - p3) * lambda_r;
            y
        };
        if accepts(n, p, m, npq, y, v) {
            return (y as u64).min(n);
        }
    }
    m as u64
}

/// Whether BTPE keeps the proposal `y` drawn with height `v`: whether
/// `v ≤ f(y)/f(m)` for the Binomial(`n`, `p`) pmf `f` and its mode `m`.
fn accepts(n: u64, p: f64, m: f64, npq: f64, y: f64, v: f64) -> bool {
    let nf = n as f64;
    let q = 1.0 - p;
    let k = (y - m).abs();
    if k <= 20.0 || k >= npq / 2.0 - 1.0 {
        // near the mode: the pmf ratio, one factor per step
        let s = p / q;
        let a = s * (nf + 1.0);
        let (lo, hi) = if m < y { (m, y) } else { (y, m) };
        let ratio = (lo as u64 + 1..=hi as u64).fold(1.0, |f, i| f * (a / i as f64 - s));
        return v <= if m < y { ratio } else { 1.0 / ratio };
    }
    // far from it: squeeze ln v between bounds of the log ratio first
    let rho = (k / npq) * ((k * (k / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
    let t = -k * k / (2.0 * npq);
    let log_v = v.ln();
    if log_v < t - rho {
        return true;
    }
    if log_v > t + rho {
        return false;
    }
    // then against the log ratio with Stirling's correction terms
    let x1 = y + 1.0;
    let f1 = m + 1.0;
    let z = nf + 1.0 - m;
    let w = nf - y + 1.0;
    let stirling = |x: f64| {
        let x2 = x * x;
        (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166320.0
    };
    log_v
        <= (m + 0.5) * (f1 / x1).ln()
            + (nf - m + 0.5) * (z / w).ln()
            + (y - m) * (w * p / (x1 * q)).ln()
            + stirling(f1)
            + stirling(z)
            + stirling(x1)
            + stirling(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A source that returns one word forever: 0 draws `0.0`, `u64::MAX`
    /// draws `1 − 2^-53`.
    struct Constant(u64);
    impl rand::RngCore for Constant {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The Binomial(n, p) pmf, by the recurrence from its mode outwards
    /// (normalised at the end, so no underflow at the centre).
    fn pmf(n: u64, p: f64) -> Vec<f64> {
        let mode = ((n + 1) as f64 * p).floor().min(n as f64) as usize;
        let mut f = vec![0.0; n as usize + 1];
        f[mode] = 1.0;
        let odds = p / (1.0 - p);
        for x in mode..n as usize {
            f[x + 1] = f[x] * odds * (n as usize - x) as f64 / (x + 1) as f64;
        }
        for x in (1..=mode).rev() {
            f[x - 1] = f[x] / odds * x as f64 / (n as usize - x + 1) as f64;
        }
        let total: f64 = f.iter().sum();
        f.iter().map(|v| v / total).collect()
    }

    /// Pearson's χ² of `draws` samples against the exact pmf, over cells
    /// pooled until each expects at least 5 draws, with its degrees of
    /// freedom.
    fn chi_square(n: u64, p: f64, draws: usize, seed: u64) -> (f64, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut observed = vec![0u64; n as usize + 1];
        for _ in 0..draws {
            let k = binomial(&mut rng, n, p);
            assert!(k <= n);
            observed[k as usize] += 1;
        }
        let expected: Vec<f64> = pmf(n, p).iter().map(|f| f * draws as f64).collect();
        // pool cells left to right: a cell closes once it expects ≥ 5, the
        // remainder joins the last closed cell
        let mut cells: Vec<(f64, f64)> = Vec::new();
        let mut open = (0.0, 0.0);
        for (e, o) in expected.iter().zip(&observed) {
            open = (open.0 + e, open.1 + *o as f64);
            if open.0 >= 5.0 {
                cells.push(std::mem::take(&mut open));
            }
        }
        let last = cells.last_mut().expect("some cell expects 5 draws");
        *last = (last.0 + open.0, last.1 + open.1);
        let chi2 = cells.iter().map(|(e, o)| (o - e).powi(2) / e).sum();
        (chi2, cells.len() - 1)
    }

    #[test]
    fn draws_fit_the_exact_pmf_on_both_sides_of_both_switches() {
        // below and above n·p = 30 (inversion | BTPE), below, at and above
        // p = ½ (mirrored), including BTPE's direct-ratio and Stirling
        // acceptance regimes (npq small and large)
        let cases: [(u64, f64); 10] = [
            (40, 0.05),
            (59, 0.5),
            (61, 0.5),
            (100, 0.29),
            (100, 0.31),
            (100, 0.69),
            (100, 0.71),
            (200, 0.95),
            (5_000, 0.4),
            (100_000, 0.999),
        ];
        for (i, (n, p)) in cases.into_iter().enumerate() {
            let (chi2, dof) = chi_square(n, p, 40_000, 11 + i as u64);
            // a χ² bound far in the tail: mean dof, sd sqrt(2·dof)
            let bound = dof as f64 + 6.0 * (2.0 * dof as f64).sqrt();
            assert!(chi2 < bound, "n {n} p {p}: χ² {chi2:.1} over {dof} dof exceeds {bound:.1}");
        }
    }

    #[test]
    fn edge_cases_need_no_draw() {
        let mut rng = Constant(12345);
        assert_eq!(binomial(&mut rng, 0, 0.3), 0);
        assert_eq!(binomial(&mut rng, 0, 1.0), 0);
        assert_eq!(binomial(&mut rng, 17, 0.0), 0);
        assert_eq!(binomial(&mut rng, 17, -0.5), 0);
        assert_eq!(binomial(&mut rng, 17, f64::NAN), 0);
        assert_eq!(binomial(&mut rng, 17, 1.0), 17);
        assert_eq!(binomial(&mut rng, 17, 1.5), 17);
    }

    #[test]
    fn a_huge_trial_count_stays_in_range() {
        let n = 1_000_000_000_000;
        let mut rng = StdRng::seed_from_u64(3);
        for p in [1e-13, 2e-11, 1e-6, 0.3, 0.5, 0.9, 1.0 - 1e-12] {
            for _ in 0..100 {
                let k = binomial(&mut rng, n, p);
                assert!(k <= n, "p {p}: {k}");
            }
        }
        // the mean lands where it should, to a few standard deviations
        let k = binomial(&mut rng, n, 0.25) as f64;
        assert!((k - 2.5e11).abs() < 10.0 * (n as f64 * 0.25 * 0.75).sqrt(), "{k}");
    }

    #[test]
    fn a_constant_source_terminates_everywhere() {
        for word in [0, 1 << 63, u64::MAX] {
            for n in [1, 10, 59, 61, 1_000, 1_000_000_000_000] {
                for p in [1e-14, 1e-3, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-14] {
                    assert!(binomial(&mut Constant(word), n, p) <= n);
                }
            }
        }
    }
}
