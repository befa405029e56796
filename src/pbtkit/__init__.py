"""Desk-scale port-based teleportation with the pretty good measurement.

Subgroup-adapted symmetric-group representations, dense Schur transforms,
the irrep decomposition of the partially transposed permutation algebra,
unitary block-encodings, Naimark dilation and oblivious amplitude
amplification, every formula checked against a dense brute-force oracle.
"""

from .partitions import (
    BoxAddition,
    Partition,
    add_box,
    dim_specht,
    dim_weyl,
    enumerate_partitions,
    remove_box,
)
from .symrep import StandardTableau, prir_block, standard_tableaux, yor, yor_adjacent
from .schur import (
    PermutationOperator,
    SchurTransform,
    build_schur,
    partial_transpose_last,
    permutation_operator,
    submatrix_U_alpha,
    submatrix_U_nu_alpha,
)
from .twisted import (
    IrrepBlock,
    TwistedSchur,
    build_twisted,
    f_basis,
    gram_spectrum,
    lambda_eigenvalue,
    mf_generator,
    mf_pi,
    mf_rho,
    mf_sqrt_pi,
    pseudo_scale,
    psi_vectors,
    z_matrix,
)
from .pbt import (
    Povm,
    channel_apply,
    entanglement_fidelity,
    kraus_from_twisted,
    outcome_output,
    pgm_dense,
    pgm_fidelity,
    pgm_function,
    pgm_functions,
    pgm_probabilities,
    principal_sqrt,
    rho_i_dense,
)
from .registers import Layout, Register
from .blockenc import (
    BlockEncoding,
    build_PL_PR,
    coefficients,
    encode_kraus,
    encode_O,
    encode_Phi,
    kraus_ledger,
    naimark_Uc,
    unitary_complete,
)
from .amplify import AmplificationPlan, amplified_V, end_to_end, plan
from .simulate import ProtocolRun, run, sample

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
