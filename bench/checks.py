"""Answer checks.  Each returns True when the program's answer is right.

They take answers already converted to the reference representation (or
plain values parsed from the command line's output), and compare them
with a computation made in ``ref`` or with a fact fixed by how the input
was built.  ``test_checks.py`` shows each one rejecting a wrong answer.
"""

from fractions import Fraction

from ref import Matrix, identity, mat_mul, same_matrix


def to_ref(hom_matrix):
    """A gradix HomMatrix as a reference Matrix (morphisms become key tuples)."""
    return Matrix(
        [m.key() for m in hom_matrix.row_sig], [m.key() for m in hom_matrix.col_sig], hom_matrix.entries
    )


def from_json(field, record):
    """A matrix from its ``gradix/1`` payload."""
    return Matrix(
        [tuple(m) for m in record["row_signature"]],
        [tuple(m) for m in record["col_signature"]],
        {(i, j): field.norm(Fraction(c) if isinstance(c, str) else c) for i, j, c in record["entries"]},
    )


def inverse(ring, a, b):
    """B is a two-sided inverse of A: AB = I and BA = I under the reference product."""
    if b is None or b.row_sig != a.col_sig or b.col_sig != a.row_sig:
        return False
    return same_matrix(ring, mat_mul(ring, a, b), identity(ring, a.row_sig)) and same_matrix(
        ring, mat_mul(ring, b, a), identity(ring, a.col_sig)
    )


def solution(ring, a, x, rhs):
    """A x = b, where b = A x0 was built by the benchmark."""
    return x is not None and x.row_sig == a.col_sig and same_matrix(ring, mat_mul(ring, a, x), rhs)


def product(ring, a, b, c):
    return same_matrix(ring, mat_mul(ring, a, b), c)


def ranks(values, r, skipped):
    """rho_r, rho_c and rho equal the built inner size r; rho_i too unless the bound skipped it."""
    rho_r, rho_c, rho, rho_i, was_skipped = values
    if was_skipped != skipped or not rho_r == rho_c == rho == r:
        return False
    return rho_i is None if skipped else rho_i == r


def decomposition(sizes, want_sizes):
    """Block count and sorted block sizes match the built primality classes."""
    return sorted(sizes) == sorted(want_sizes)


def flags(got, want):
    """Every flag named in ``want`` has the wanted value in ``got``."""
    return all(got.get(k) == v for k, v in want.items())


def iso(answer, want):
    return answer is want


def hom_dims(got, want):
    """``got`` maps (A, B) to dim Hom; ``want`` maps (A, B) to sum_j m_j(A) m_j(B), zeros left out."""
    return {k: v for k, v in got.items() if v} == {k: v for k, v in want.items() if v}


def rejection(code, stderr, invariant):
    """A broken file exits 1, names its invariant, and prints no traceback."""
    return code == 1 and invariant in stderr and "Traceback" not in stderr


def clean_usage_error(code, stderr):
    """Malformed input exits 2 with no traceback."""
    return code == 2 and "Traceback" not in stderr
