//! Metamorphic oracle family: properties MI must satisfy with no second
//! implementation to compare against.
//!
//! The relations and their equivalence grades:
//!
//! * **Symmetry** `I(X;Y) = I(Y;X)` — tolerance-equal
//!   ([`TolerancePolicy::symmetry_abs`]): both directions accumulate the
//!   same joint grid transposed, so only f32 summation order differs.
//! * **Strictly monotone transforms** `I(f(X);Y) = I(X;Y)` — *bit*-equal
//!   for `f(x) = 4x`: the rank transform sees the same order and the same
//!   tie groups (scaling by a power of two is exact in f32 for the
//!   corpus's magnitude range), so the prepared weights are identical
//!   floats and everything downstream is deterministic.
//! * **Joint sample permutation** `I(Xπ;Yπ) = I(X;Y)` — tolerance-equal
//!   ([`TolerancePolicy::joint_perm_abs`]): the joint histogram is a
//!   multiset sum, but f32 addition is not associative.
//! * **Self-MI** `I(X;X) = H(X)` at spline order 1 — the identity is
//!   exact only for the hard histogram (order-1 basis); higher orders
//!   spread a sample's mass over `k` bins and the joint picks up genuine
//!   off-diagonal mass. Checked at order 1 within
//!   [`TolerancePolicy::self_mi_abs`].
//! * **Non-negativity** `I ≥ 0` up to [`TolerancePolicy::nonneg_floor`]:
//!   plug-in MI with marginals derived from the same weights is a KL
//!   divergence.
//! * **Independent-pair null consistency**: on independent-Gaussian
//!   datasets the observed MI of each pair is statistically exchangeable
//!   with its permutation nulls, so the mean empirical p-value over all
//!   pairs must sit near ½ (the generous `[0.25, 0.75]` band keeps the
//!   check deterministic-safe at corpus sizes while still catching an
//!   estimator that systematically inflates observed MI against its own
//!   null).

use crate::corpus::{DatasetClass, DatasetSpec};
use crate::differential::OracleOutcome;
use crate::TolerancePolicy;
use gnet_bspline::BsplineBasis;
use gnet_core::prepare_genes;
use gnet_expr::normalize::rank_transform_profile;
use gnet_mi::gene::{mi_scalar, mi_vector, mi_with_nulls, MiKernel, MiScratch};
use gnet_mi::{prepare_gene, PreparedGene};
use gnet_permute::PermutationSet;

fn basis() -> BsplineBasis {
    BsplineBasis::tinge_default()
}

/// Run every metamorphic relation over one dataset.
pub(crate) fn metamorphic_oracle(spec: &DatasetSpec, tol: &TolerancePolicy) -> OracleOutcome {
    let matrix = spec.build();
    let n = matrix.genes();
    let m = matrix.samples();
    let prepared = prepare_genes(&matrix, 0..matrix.genes(), &basis(), 1);
    let dense: Vec<_> = prepared.iter().map(PreparedGene::to_dense).collect();
    let mut scratch = MiScratch::for_basis(&basis());
    let mut checks = 0;

    // Symmetry + non-negativity over all pairs, both kernels.
    for j in 1..n {
        for i in 0..j {
            let s_ij = mi_scalar(&prepared[i], &prepared[j], &mut scratch);
            let s_ji = mi_scalar(&prepared[j], &prepared[i], &mut scratch);
            let v_ij = mi_vector(&prepared[i], &prepared[j], &dense[j], &mut scratch);
            let v_ji = mi_vector(&prepared[j], &prepared[i], &dense[i], &mut scratch);
            checks += 2;
            let ds = (s_ij - s_ji).abs();
            let dv = (v_ij - v_ji).abs();
            if ds > tol.symmetry_abs || dv > tol.symmetry_abs {
                return OracleOutcome::fail(
                    checks,
                    format!(
                        "symmetry broken at pair ({i},{j}): scalar |Δ| {ds:.3e}, \
                         vector |Δ| {dv:.3e} vs {:.1e}",
                        tol.symmetry_abs
                    ),
                );
            }
            checks += 2;
            if s_ij < tol.nonneg_floor || v_ij < tol.nonneg_floor {
                return OracleOutcome::fail(
                    checks,
                    format!(
                        "negative MI at pair ({i},{j}): scalar {s_ij:.6}, vector {v_ij:.6} \
                         below floor {:.1e}",
                        tol.nonneg_floor
                    ),
                );
            }
        }
    }

    // Strictly monotone transform f(x) = 4x: bit-identical MI.
    let transformed: Vec<PreparedGene> = (0..n)
        .map(|g| {
            let scaled: Vec<f32> = matrix.gene(g).iter().map(|v| v * 4.0).collect();
            prepare_gene(&scaled, &basis())
        })
        .collect();
    for j in 1..n {
        for i in 0..j {
            let before = mi_scalar(&prepared[i], &prepared[j], &mut scratch);
            let after = mi_scalar(&transformed[i], &transformed[j], &mut scratch);
            checks += 1;
            if before.to_bits() != after.to_bits() {
                return OracleOutcome::fail(
                    checks,
                    format!(
                        "monotone transform changed MI at pair ({i},{j}): \
                         {before:.12} -> {after:.12} (must be bit-identical)"
                    ),
                );
            }
        }
    }

    // Joint sample permutation: reorder both genes by the same π.
    let perm = PermutationSet::generate(m, 1, spec.seed ^ 0x6A70_6572); // "jper"
    let pi = perm.get(0);
    let permuted: Vec<PreparedGene> = (0..n)
        .map(|g| {
            let src = matrix.gene(g);
            // cast-ok: permutation entries index the sample range
            let reordered: Vec<f32> = pi.iter().map(|&s| src[s as usize]).collect();
            prepare_gene(&reordered, &basis())
        })
        .collect();
    for j in 1..n {
        for i in 0..j {
            let before = mi_scalar(&prepared[i], &prepared[j], &mut scratch);
            let after = mi_scalar(&permuted[i], &permuted[j], &mut scratch);
            checks += 1;
            let delta = (before - after).abs();
            if delta > tol.joint_perm_abs {
                return OracleOutcome::fail(
                    checks,
                    format!(
                        "joint permutation changed MI at pair ({i},{j}): \
                         {before:.9} -> {after:.9}, |Δ| {delta:.3e} vs {:.1e}",
                        tol.joint_perm_abs
                    ),
                );
            }
        }
    }

    // Self-MI = H(X) at spline order 1 (exact histogram), both kernels.
    let basis1 = BsplineBasis::new(1, 10);
    let mut scratch1 = MiScratch::for_basis(&basis1);
    for g in 0..n {
        let p = PreparedGene::from_normalized(&rank_transform_profile(matrix.gene(g)), &basis1);
        let pd = p.to_dense();
        let s = mi_scalar(&p, &p, &mut scratch1);
        let v = mi_vector(&p, &p, &pd, &mut scratch1);
        checks += 2;
        let ds = (s - p.h_marginal).abs();
        let dv = (v - p.h_marginal).abs();
        if ds > tol.self_mi_abs || dv > tol.self_mi_abs {
            return OracleOutcome::fail(
                checks,
                format!(
                    "I(X,X) != H(X) at gene {g} (order-1 basis): H {h:.9}, \
                     scalar {s:.9}, vector {v:.9}",
                    h = p.h_marginal
                ),
            );
        }
    }

    // Independent-pair null consistency (only where independence holds by
    // construction and m gives the null room to spread).
    if spec.class == DatasetClass::IndependentGaussian && m >= 30 && n >= 4 {
        let q = 30;
        let perms = PermutationSet::generate(m, q, spec.seed ^ 0x6E75_6C6C); // "null"
        let mut p_sum = 0.0f64;
        let mut pairs = 0usize;
        for j in 1..n {
            for i in 0..j {
                let res = mi_with_nulls(
                    MiKernel::VectorDense,
                    &prepared[i],
                    &prepared[j],
                    Some(&dense[j]),
                    perms.as_vecs(),
                    &mut scratch,
                );
                // cast-ok: small counts convert exactly
                p_sum += (res.exceed_count() + 1) as f64 / (q + 1) as f64;
                pairs += 1;
            }
        }
        // cast-ok: small counts convert exactly
        let mean_p = p_sum / pairs as f64;
        checks += 1;
        if !(0.25..=0.75).contains(&mean_p) {
            return OracleOutcome::fail(
                checks,
                format!(
                    "independent pairs inconsistent with their permutation null: \
                     mean empirical p {mean_p:.3} over {pairs} pairs \
                     (expected ≈ 0.5, band [0.25, 0.75])"
                ),
            );
        }
    }

    OracleOutcome::clean(checks)
}
