"""The public surface of the package: the names that `__all__` lists and
that `from magsuper import *` binds."""

import magsuper

PUBLIC = """
    BracketTable CoeffPolynomials ConfigError ConstantB Custom Cylindrical DegenerateKappa
    DegenerateMomentum DomainError EigenSolveFailure FieldCheckReport GaugeFunction Grid1D
    GridTooSmall HelicalB HelicalReducedResult IntegralSpec IntegratorConfig MagsuperError
    MathieuResult Monopole NoBoundStates ParameterError PendulumReduction PhaseFunction
    PhaseState RESIDUAL_KEYS SeparatrixRegime SolverStats SpectrumResult StepFailure
    Trajectory UnsupportedModel as_phase_function bracket_matrix casimir_check
    constantB_basis constantB_bracket_table covariant_momentum determining_residuals
    divergence_checks ellipk evaluate_integral gauge_shift hamiltonian hamiltonian_function
    helical_reduced_solve helical_z_of_t helix_solution integrate inv_am inv_sn jacobi_am
    jacobi_cn jacobi_dn jacobi_sn known_integrals landau_reduced_solve magnetic_field
    mathieu_characteristic mathieu_table model_from_config monopole_admissible
    monopole_angular_specs monopole_closure_check monopole_runge_lenz_specs
    monopole_total_square_spec pendulum_reduction phase_gradient radial_reduced_solve
    sample_states scalar_potential tilde_transform vector_potential verify_bracket_table
    x5_integral x6_integral zeta_solution
""".split()


def test_the_public_names_are_pinned():
    assert len(PUBLIC) == len(set(PUBLIC)) == 78
    assert sorted(magsuper.__all__) == sorted(PUBLIC)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from magsuper import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(magsuper, name) for name in PUBLIC)
