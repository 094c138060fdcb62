"""Dense pairwise reference for the bimodule structure of a calculus.

``calculus_invariants_report`` certifies the actions and the involution
through the standard-form unitary.  The functions here check the same
properties directly over every pair of matrix units, at O(n^4 dim_h^3)
cost, and serve as the oracle the structure certificate is compared
against at n <= 3.  ``kron_commutator_actions`` is the Kronecker-product
construction of a commutator family's uncompressed calculus, the oracle for
the blockwise actions of ``commutator_calculus``.  ``einsum_gns_actions``
and ``loop_compression_leak`` are the plain-einsum and per-unit-loop forms
of the batched contractions in ``gns_calculus`` and ``commutator_calculus``.
``loop_witness_defects`` is the per-unit intertwining defect on the spanning
family that ``uniqueness_witness`` bounds at operator level, and
``lstsq_inner_vector`` the dense least-squares solve of ``inner_vector``.
"""

import numpy as np

import kmsflow as kf
from kmsflow.derivation import _quarter_units, spanning_family
from kmsflow.matrix_core import dagger
from kmsflow.reports import Check
from kmsflow.superop import lmul, rmul, vec

STRUCTURE_CHECKS = (
    "multiplicity_defect",
    "standard_form_unitarity_defect",
    "pi_l_intertwine_defect",
    "pi_r_intertwine_defect",
    "j_intertwine_defect",
)


def _maxabs(x) -> float:
    return float(np.abs(x).max(initial=0.0))


def pairwise_grid_defects(calc) -> dict:
    """Largest entrywise violation over all matrix-unit pairs (E_ab, E_cd) of

    - pi_l(E_ab) pi_l(E_cd) = delta_bc pi_l(E_ad),
    - pi_r(E_ab) pi_r(E_cd) = delta_da pi_r(E_cb),
    - [pi_l(E_ab), pi_r(E_cd)] = 0,
    - J pi_l(E_ab) pi_r(E_cd) = pi_l(E_cd)* pi_r(E_ab)* J.
    """
    n = calc.dim
    d = calc.dim_h
    n2 = n * n
    pl = calc.pi_l.reshape(n2, d, d)
    pr = calc.pi_r.reshape(n2, d, d)
    pl_wide = calc.pi_l.transpose(2, 0, 1, 3).reshape(d, n2 * d)
    pr_wide = calc.pi_r.transpose(2, 0, 1, 3).reshape(d, n2 * d)

    hom = antihom = commute = j_twist = 0.0
    for a in range(n):
        for b in range(n):
            x = a * n + b
            prod = (pl[x] @ pl_wide).reshape(d, n2, d).transpose(1, 0, 2)
            expect = np.zeros_like(prod)
            expect[b * n : (b + 1) * n] = calc.pi_l[a]
            hom = max(hom, _maxabs(prod - expect))
            prod_r = (pr[x] @ pr_wide).reshape(d, n2, d).transpose(1, 0, 2)
            expect_r = np.zeros_like(prod_r)
            expect_r.reshape(n, n, d, d)[:, a] = calc.pi_r[:, b]
            antihom = max(antihom, _maxabs(prod_r - expect_r))
            lr = (pl[x] @ pr_wide).reshape(d, n2, d).transpose(1, 0, 2)
            rl = (pr.reshape(n2 * d, d) @ pl[x]).reshape(n2, d, d)
            commute = max(commute, _maxabs(lr - rl))
            lhs = (calc.jmat @ np.conj(pl[x] @ pr_wide)).reshape(d, n2, d).transpose(1, 0, 2)
            t = dagger(pr[x]) @ calc.jmat
            rhs = (np.conj(pl.transpose(0, 2, 1)).reshape(n2 * d, d) @ t).reshape(n2, d, d)
            j_twist = max(j_twist, _maxabs(lhs - rhs))
    return {
        "pi_l_homomorphism_defect": hom,
        "pi_r_antihomomorphism_defect": antihom,
        "actions_commute_defect": commute,
        "j_bimodule_twist_defect": j_twist,
    }


def grid_invariants_report(calc, gen, tol: float = 1e-9):
    """The invariants report with the structure certificate replaced by the
    pairwise grid, all at the same tol * max(1, ||L||)."""
    rep = kf.calculus_invariants_report(calc, gen, tol=tol)
    bound = tol * max(1.0, gen.L.norm)
    rep.checks = [c for c in rep.checks if c.name not in STRUCTURE_CHECKS] + [
        Check(name, value, bound, "le") for name, value in pairwise_grid_defects(calc).items()
    ]
    return rep


def kron_commutator_actions(family, gen) -> dict:
    """The calculus of a commutator family on M_n (x) C^N before trimming,
    as dense arrays over the vectorized blocks: pi_l(E_ab) = I (x) lmul(E_ab),
    pi_r(E_ab) = I (x) rmul(E_ab), delta(E_ab)_j = vec(rho^{1/4} [V_j, E_ab]
    rho^{1/4}), the linear part of J (pairing (x) transpose, negated) and the
    spanning family pi_l(E_ab) delta(E_cd)."""
    n = gen.dim
    nf = len(family)
    qr = gen.ctx.quarter_rho
    dim_full = n * n * nf
    eye_f = np.eye(nf)
    delta_full = np.zeros((n, n, dim_full), dtype=complex)
    pi_l_full = np.empty((n, n, dim_full, dim_full), dtype=complex)
    pi_r_full = np.empty((n, n, dim_full, dim_full), dtype=complex)
    for a in range(n):
        for b in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b] = 1.0
            for j, v in enumerate(family.ops):
                block = qr @ (v @ e - e @ v) @ qr
                delta_full[a, b, j * n * n : (j + 1) * n * n] = vec(block)
            pi_l_full[a, b] = np.kron(eye_f, lmul(e).mat)
            pi_r_full[a, b] = np.kron(eye_f, rmul(e).mat)
    pt = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            pt[j * n + i, i * n + j] = 1.0
    perm = np.zeros((nf, nf))
    for j, jstar in enumerate(family.pairing):
        perm[jstar, j] = 1.0
    span = np.einsum("abik,cdk->iabcd", pi_l_full, delta_full).reshape(dim_full, n**4)
    return {
        "pi_l": pi_l_full,
        "pi_r": pi_r_full,
        "delta": delta_full,
        "jmat": -np.kron(perm, pt),
        "span": span,
    }


def einsum_gns_actions(calc) -> dict:
    """pi_l, pi_r and delta of a GNS calculus recomputed from its quotient
    maps (``meta["class_map"]``, ``meta["lift"]``) with plain einsums:
    pi_l(E_pq) acts on the first ambient factor's row index, pi_r(E_pq) on
    the second factor's column index, and delta(E_ab) is the class of
    sigma_{-i/4}(E_ab) (x) I - I (x) sigma_{i/4}(E_ab)."""
    n = calc.dim
    d = calc.dim_h
    class_t = calc.meta["class_map"].reshape(d, n, n, n, n)
    lift_t = calc.meta["lift"].reshape(n, n, n, n, d)
    qr = calc.ctx.quarter_rho
    qi = calc.ctx.inv_quarter_rho
    eye = np.eye(n)
    s_m4 = np.einsum("xa,by->abxy", qr, qi)
    s_p4 = np.einsum("xa,by->abxy", qi, qr)
    d6 = np.einsum("abxy,zw->abxyzw", s_m4, eye) - np.einsum("xy,abzw->abxyzw", eye, s_p4)
    return {
        "pi_l": np.einsum("ipbcd,qbcdk->pqik", class_t, lift_t),
        "pi_r": np.einsum("iabcq,abcpk->pqik", class_t, lift_t),
        "delta": np.einsum("iP,abP->abi", calc.meta["class_map"], d6.reshape(n, n, n**4)),
    }


def loop_compression_leak(calc_k) -> float:
    """Largest entry of pi_l(E_ab) q - q pi_l[a, b] over the matrix units,
    one left index a at a time, with q = ``meta["isometry"]`` and rows[r]
    the entries of q in row r of every block of M_n (x) C^N."""
    n = calc_k.dim
    q = calc_k.meta["isometry"]
    nf = calc_k.meta["family_size"]
    rows = q.reshape(nf, n, n, -1).transpose(2, 0, 1, 3).reshape(n, nf * n, -1)
    leak = 0.0
    for a in range(n):
        resid = rows[:, None] @ calc_k.pi_l[a][None]  # [r, b]
        resid[a] -= rows
        leak = max(leak, _maxabs(resid))
    return leak


def loop_witness_defects(theta, calc_a, calc_b) -> dict:
    """Largest entrywise intertwining defect of theta on the spanning family
    S of ``calc_a``, one matrix unit E at a time: theta pi_a(E) S against
    pi_b(E) theta S for both actions, and theta J_a conj(S) against
    J_b conj(theta S)."""
    n = calc_a.dim
    sa = spanning_family(calc_a)
    theta_sa = theta @ sa
    pl = pr = 0.0
    for a in range(n):
        for b in range(n):
            pl = max(pl, _maxabs(theta @ (calc_a.pi_l[a, b] @ sa) - calc_b.pi_l[a, b] @ theta_sa))
            pr = max(pr, _maxabs(theta @ (calc_a.pi_r[a, b] @ sa) - calc_b.pi_r[a, b] @ theta_sa))
    j = _maxabs(theta @ (calc_a.jmat @ np.conj(sa)) - calc_b.jmat @ np.conj(theta_sa))
    return {
        "pi_l_intertwine_defect": pl,
        "pi_r_intertwine_defect": pr,
        "j_intertwine_defect": j,
    }


def lstsq_inner_vector(calc):
    """(xi0, residual) of the innerness equation solved by dense
    least squares (``np.linalg.lstsq``, rcond=None) on the stacked
    (n^2 dim_h x dim_h) operator, residual relative as in ``inner_vector``."""
    n, d = calc.dim, calc.dim_h
    s_m4, s_p4 = _quarter_units(calc.ctx)
    a_stack = np.tensordot(s_m4, calc.pi_l, axes=2) - np.tensordot(s_p4, calc.pi_r, axes=2)
    a_stack = a_stack.reshape(n * n * d, d)
    b_stack = calc.delta.reshape(n * n * d)
    xi0, *_ = np.linalg.lstsq(a_stack, b_stack, rcond=None)
    resid = np.linalg.norm(a_stack @ xi0 - b_stack)
    denom = np.linalg.norm(b_stack)
    return xi0, float(resid / denom if denom > 0 else resid)
