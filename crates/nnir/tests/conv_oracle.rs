// Test target: panics are the failure report.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! An independent reference for the convolution kernels.
//!
//! The engine's own proptests compare its blocked and threaded kernels
//! with its serial schedule; a kernel that is wrong but self-consistent
//! passes those. Here every output is checked against a deliberately
//! naive f64 direct 7-loop convolution with an analytic error bound.
//!
//! **The bound.** Each output is `b + Σ_k w_k·x_k` over `K = icg·kh·kw`
//! terms, computed in f32 by some summation tree. Every product is
//! rounded once, and no leaf of a tree over `K + 1` summands sits under
//! more than `K` additions, so (Higham, *Accuracy and Stability of
//! Numerical Algorithms*, §3.1)
//!
//! `|engine − exact| ≤ γ_{K+1} · (Σ_k |w_k·x_k| + |b|) + K·η`,
//! `γ_n = n·u / (1 − n·u)`, `u = 2⁻²⁴`,
//!
//! where `η = 2⁻¹⁴⁹` covers products that underflow. The oracle's own
//! f64 error, at most `γ_{K+1}` with `u = 2⁻⁵³` times the same sum, is
//! added on top. A window that lies wholly in the padding of a
//! bias-free conv has an empty sum, so its output must be exactly zero.

use proptest::prelude::*;
use vedliot_nnir::exec::{Parallelism, RunOptions, Runner};
use vedliot_nnir::graph::WeightInit;
use vedliot_nnir::ops::{Conv2dAttrs, Op};
use vedliot_nnir::{GraphBuilder, Shape, Tensor};

/// The engine's GEMM register tile: out-channels × pixels. The shape
/// table below is chosen to land off this grid as well as on it.
const MR: usize = 4;
const NR: usize = 2;

/// `γ_n = n·u / (1 − n·u)`.
fn gamma(n: usize, u: f64) -> f64 {
    let nu = n as f64 * u;
    nu / (1.0 - nu)
}

/// One convolution problem: NCHW input geometry plus the attributes.
#[derive(Debug, Clone, Copy)]
struct Case {
    batch: usize,
    in_c: usize,
    h: usize,
    w: usize,
    attrs: Conv2dAttrs,
    seed: u64,
}

impl Case {
    fn out_hw(&self) -> (usize, usize) {
        let a = &self.attrs;
        (
            (self.h + 2 * a.padding.0 - a.kernel.0) / a.stride.0 + 1,
            (self.w + 2 * a.padding.1 - a.kernel.1) / a.stride.1 + 1,
        )
    }

    /// The reduction length of one output.
    fn k_len(&self) -> usize {
        self.in_c / self.attrs.groups * self.attrs.kernel.0 * self.attrs.kernel.1
    }

    /// Whether some output window lies wholly in the padding.
    fn has_padding_only_window(&self) -> bool {
        let (oh, ow) = self.out_hw();
        let a = &self.attrs;
        let outside = |o: usize, s: usize, k: usize, p: usize, len: usize| {
            let lo = (o * s) as isize - p as isize;
            lo + k as isize <= 0 || lo >= len as isize
        };
        (0..oh).any(|oy| outside(oy, a.stride.0, a.kernel.0, a.padding.0, self.h))
            || (0..ow).any(|ox| outside(ox, a.stride.1, a.kernel.1, a.padding.1, self.w))
    }
}

/// The naive reference: for every output, the exact-ish f64 value and
/// the magnitude sum `Σ|w·x| + |b|` its error bound scales with.
fn oracle(case: &Case, x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> (Vec<f64>, Vec<f64>) {
    let a = &case.attrs;
    let (kh, kw) = a.kernel;
    let (sh, sw) = a.stride;
    let (ph, pw) = a.padding;
    let (oh, ow) = case.out_hw();
    let (icg, ocg) = (case.in_c / a.groups, a.out_channels / a.groups);
    let (xd, wd) = (x.data(), w.data());
    let mut values = Vec::new();
    let mut sums = Vec::new();
    for n in 0..case.batch {
        for oc in 0..a.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let bias = b.map_or(0.0, |t| f64::from(t.data()[oc]));
                    let (mut acc, mut mag) = (bias, bias.abs());
                    for ic in 0..icg {
                        let c = oc / ocg * icg + ic;
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * sh + ky) as isize - ph as isize;
                                let ix = (ox * sw + kx) as isize - pw as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= case.h as isize
                                    || ix >= case.w as isize
                                {
                                    continue;
                                }
                                let xv = xd[((n * case.in_c + c) * case.h + iy as usize) * case.w
                                    + ix as usize];
                                let wv = wd[((oc * icg + ic) * kh + ky) * kw + kx];
                                let p = f64::from(xv) * f64::from(wv);
                                acc += p;
                                mag += p.abs();
                            }
                        }
                    }
                    values.push(acc);
                    sums.push(mag);
                }
            }
        }
    }
    (values, sums)
}

/// Runs `case` through the engine under `par` and checks every output
/// against the oracle's bound.
fn check(case: &Case, par: Parallelism) -> Result<(), String> {
    let a = case.attrs;
    let in_shape = Shape::nchw(case.batch, case.in_c, case.h, case.w);
    let x = Tensor::random(in_shape.clone(), case.seed, 1.0);
    let w_shape = Shape::new(vec![
        a.out_channels,
        case.in_c / a.groups,
        a.kernel.0,
        a.kernel.1,
    ]);
    let w = Tensor::random(w_shape, case.seed ^ 0x5eed, 1.0);
    let b = a
        .bias
        .then(|| Tensor::random(Shape::new(vec![a.out_channels]), case.seed ^ 0xb1a5, 0.5));
    let mut weights = vec![w.clone()];
    weights.extend(b.clone());

    let mut g = GraphBuilder::new("oracle");
    let input = g.input(in_shape);
    let out = g
        .apply_with_weights(
            "conv",
            Op::Conv2d(a),
            &[input],
            WeightInit::Explicit(weights),
        )
        .map_err(|e| e.to_string())?;
    let graph = g.finish(vec![out]);
    let got = Runner::builder()
        .parallelism(par)
        .build(&graph)
        .map_err(|e| e.to_string())?
        .execute(std::slice::from_ref(&x), RunOptions::default())
        .map_err(|e| e.to_string())?
        .into_outputs()
        .remove(0);

    let (want, sums) = oracle(case, &x, &w, b.as_ref());
    if got.data().len() != want.len() {
        return Err(format!(
            "{} outputs, oracle has {}",
            got.data().len(),
            want.len()
        ));
    }
    let n = case.k_len() + 1;
    let (g32, g64) = (gamma(n, f64::powi(2.0, -24)), gamma(n, f64::powi(2.0, -53)));
    let eta = case.k_len() as f64 * f64::powi(2.0, -149);
    for (i, ((&e, &o), &s)) in got.data().iter().zip(&want).zip(&sums).enumerate() {
        let bound = (g32 + g64) * s + eta;
        let err = (f64::from(e) - o).abs();
        if err > bound || !e.is_finite() {
            return Err(format!(
                "output {i}: engine {e} vs oracle {o} (error {err:e} > bound {bound:e}) under {par:?}"
            ));
        }
    }
    Ok(())
}

fn conv(
    out_channels: usize,
    kernel: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
) -> Conv2dAttrs {
    Conv2dAttrs {
        out_channels,
        kernel,
        stride,
        padding,
        groups: 1,
        bias: true,
    }
}

/// Fixed shapes that between them hit every edge the tiled kernel
/// has; the test asserts the coverage as well as the bound.
#[test]
fn conv_matches_f64_oracle_on_every_tile_edge() {
    let base = Case {
        batch: 1,
        in_c: 1,
        h: 8,
        w: 8,
        attrs: conv(4, (3, 3), (1, 1), (1, 1)),
        seed: 7,
    };
    let cases = [
        // K = 13·5 = 65 (K % 4 = 1): the speech net's first layer.
        Case {
            in_c: 13,
            h: 1,
            w: 128,
            attrs: conv(16, (1, 5), (1, 2), (0, 2)),
            ..base
        },
        // K = 16·5 = 80 (K % 4 = 0), batch 3.
        Case {
            batch: 3,
            in_c: 16,
            h: 1,
            w: 64,
            attrs: conv(32, (1, 5), (1, 2), (0, 2)),
            ..base
        },
        // K = 2·3·3 = 18 (K % 4 = 2), out_c 7 and 25 pixels off both grids.
        Case {
            in_c: 2,
            h: 5,
            w: 5,
            attrs: conv(7, (3, 3), (1, 1), (1, 1)),
            ..base
        },
        // K = 3·1·1 = 3 (K % 4 = 3), stride 3 > kernel 1.
        Case {
            in_c: 3,
            h: 7,
            w: 7,
            attrs: conv(5, (1, 1), (3, 3), (0, 0)),
            ..base
        },
        // Padding 3 around a 2×2 kernel: whole windows in the padding;
        // stride 3 > kernel 2; batch 2; no bias, so those are exact zeros.
        Case {
            batch: 2,
            in_c: 3,
            h: 4,
            w: 5,
            attrs: Conv2dAttrs {
                bias: false,
                ..conv(6, (2, 2), (3, 3), (3, 3))
            },
            ..base
        },
        // K = 9 over 45×45 pixels: two pixel blocks, the second odd.
        Case {
            h: 45,
            w: 45,
            attrs: conv(9, (3, 3), (1, 1), (1, 1)),
            ..base
        },
        // Grouped (direct loop nest) with an asymmetric kernel.
        Case {
            in_c: 4,
            attrs: Conv2dAttrs {
                groups: 2,
                ..conv(6, (3, 2), (2, 1), (1, 2))
            },
            ..base
        },
    ];
    let mut k_mods = [false; 4];
    let (mut off_mr, mut off_nr, mut pad_only, mut wide_stride, mut batched) =
        (false, false, false, false, false);
    for case in &cases {
        for par in [Parallelism::Serial, Parallelism::Threads(3)] {
            check(case, par).unwrap_or_else(|e| panic!("{case:?}: {e}"));
        }
        let a = &case.attrs;
        let (oh, ow) = case.out_hw();
        k_mods[case.k_len() % 4] = true;
        off_mr |= a.groups == 1 && a.out_channels % MR != 0;
        off_nr |= a.groups == 1 && (oh * ow) % NR != 0;
        pad_only |= case.has_padding_only_window();
        wide_stride |= a.stride.0 > a.kernel.0 || a.stride.1 > a.kernel.1;
        batched |= case.batch > 1;
    }
    assert_eq!(k_mods, [true; 4], "every K % 4 class");
    assert!(off_mr && off_nr && pad_only && wide_stride && batched);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random convolutions, grouped and dense, on both thread
    /// policies, all within the stated bound of the f64 oracle.
    #[test]
    fn conv_stays_within_gamma_bound_of_f64_oracle(
        batch in 1usize..4,
        groups in 1usize..3,
        icg in 1usize..6,
        ocg in 1usize..8,
        h in 1usize..10,
        w in 1usize..10,
        kh in 1usize..5,
        kw in 1usize..6,
        sh in 1usize..5,
        sw in 1usize..5,
        ph in 0usize..5,
        pw in 0usize..5,
        bias in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        prop_assume!(h + 2 * ph >= kh && w + 2 * pw >= kw);
        let case = Case {
            batch,
            in_c: groups * icg,
            h,
            w,
            attrs: Conv2dAttrs {
                out_channels: groups * ocg,
                kernel: (kh, kw),
                stride: (sh, sw),
                padding: (ph, pw),
                groups,
                bias: bias == 1,
            },
            seed,
        };
        for par in [Parallelism::Serial, Parallelism::Threads(3)] {
            let verdict = check(&case, par);
            prop_assert!(verdict.is_ok(), "{:?}: {:?}", case, verdict);
        }
    }
}
