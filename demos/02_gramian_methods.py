"""Independent routes to the same reachability Gramian.

Quadrature integrates the defining formula, the ODE route integrates the
matrix differential equation, the block exponential (the engine behind
``compute_gramian``) reads the Gramian off one exponential of a 2n x 2n
block matrix and doubles the horizon exactly, and the closed form needs a
symmetric A commuting with B B^T.  They must agree to roundoff-ish levels on
any system; the cross-check is the backbone of the test suite.
"""

import numpy as np

import minenergy as me

rng = np.random.default_rng(7)
sys_ = me.random_stable_system(rng, 4)
t = 1.3

routes = {
    "quadrature": me.gramian_quadrature(sys_, t),
    "lyapunov_ode": me.gramian_lyapunov_ode(sys_, t),
    "block_exponential": me.gramian_block_exponential(sys_, t),
}
ref = routes["quadrature"].Q.matrix
print(f"random stable system, n = {sys_.n}, horizon {t}")
for name, gram in routes.items():
    gap = np.linalg.norm(gram.Q.matrix - ref, 2) / np.linalg.norm(ref, 2)
    print(f"  {name:<17} relative gap to quadrature: {gap:.2e}")

diag = me.LinearSystem(np.diag([-1.0, -2.5]), np.eye(2))
cf = me.gramian_commuting_closed_form(diag, t).Q.matrix
qd = me.gramian_quadrature(diag, t).Q.matrix
print(f"\ncommuting diagonal case, closed form vs quadrature: "
      f"{np.abs(cf - qd).max():.2e}")

# the splitting identity stitches Gramians across intermediate horizons
tau = 2.0
q_tau = me.gramian_quadrature(sys_, tau).Q.matrix
q_t = me.gramian_quadrature(sys_, t).Q.matrix
q_gap = me.gramian_quadrature(sys_, tau - t).Q.matrix
E = me.expm(sys_.A, t)
split_err = np.linalg.norm(q_tau - (q_t + E @ q_gap @ E.T), 2)
print(f"splitting Q_tau = Q_t + e^(tA) Q_(tau-t) e^(tA)^T: error {split_err:.2e}")

# exponential tail: the finite-horizon Gramian closes in on the limit
q_inf = me.compute_gramian(sys_, np.inf).Q.matrix
M, omega = me.negative_type_bound(sys_.A, t_max=4.0)
print(f"\ndecay envelope ||e^(tA)|| <= {M:.3f} e^(-{omega:.3f} t)")
print("horizon   ||Q_inf - Q_T||      tail bound")
for T in (1.0, 2.0, 4.0):
    gapT = np.linalg.norm(q_inf - me.gramian_quadrature(sys_, T).Q.matrix, 2)
    bound = M**2 * np.exp(-2 * omega * T) * np.linalg.norm(sys_.BBt, 2) / (2 * omega)
    print(f"  {T:4g}     {gapT:.6e}     {bound:.6e}")

# nullspaces nest as the horizon grows; with full-rank B they are trivial
chain = me.kernel_chain_check(sys_, [0.5, 1.0, 2.0])
print(f"\nkernel chain ok: {chain.equalities_ok}, dims {chain.kernel_dims}")
