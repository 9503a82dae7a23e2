"""Golden tests: the generated Figure-3/4 programs, pinned as text.

These protect the *shape* of the transformed code (guards, sweep loops,
copy placement) against silent regressions; semantic equivalence is tested
elsewhere. The listings are frontend source: each parses back to the
program it pins.
"""

from repro.frontend import parse_program
from repro.ir import pretty
from repro.kernels.recipes import build_variant


JACOBI_FIXED = """\
program jacobi_fixed
  param N, M
  real A(N, N)
  real H_A(N, N)
  real l_s
  output A
begin
  do c = 1, 1
    do c_2 = 2, N - 1
      H_A(c,c_2) = A(c,c_2)
    end do
  end do
  do c_3 = 2, N - 1
    do c_4 = 1, 1
      H_A(c_3,c_4) = A(c_3,c_4)
    end do
  end do
  do t = 0, M
    do i = 2, N - 1
      do j = 2, N - 1
        l_s = (H_A(j,i - 1) + H_A(j - 1,i) + A(j + 1,i) + A(j,i + 1))*0.25
        H_A(j,i) = A(j,i)
        A(j,i) = l_s
      end do
    end do
  end do
end"""


CHOLESKY_FIXED = """\
program cholesky_fixed
  param N
  real A(N, N)
  output A
begin
  do k = 1, N - 1
    do j = k + 1, N
      do i = j, N
        if (j .EQ. k + 1 .AND. i .EQ. k + 1) then
          A(k,k) = sqrt(A(k,k))
        end if
        if (j .EQ. k + 1) then
          A(i,k) = A(i,k)/A(k,k)
        end if
        A(i,j) = A(i,j) - A(i,k)*A(j,k)
      end do
    end do
  end do
  A(N,N) = sqrt(A(N,N))
end"""


def test_jacobi_fixed_golden():
    program = build_variant("jacobi", "fixed")
    assert pretty(program) == JACOBI_FIXED
    assert parse_program(JACOBI_FIXED) == program


def test_cholesky_fixed_golden():
    program = build_variant("cholesky", "fixed")
    assert pretty(program) == CHOLESKY_FIXED
    assert parse_program(CHOLESKY_FIXED) == program


def test_lu_fixed_landmarks():
    program = build_variant("lu", "fixed")
    text = pretty(program)
    assert parse_program(text) == program
    # Figure 4a landmarks, independent of exact variable naming:
    landmarks = [
        "temp = 0.0",                 # search initialisation at the origin
        "m = k",
        "d = A(",                     # pivot magnitude read in the P loop
        "if (abs(d) .GT. temp) then",
        "if (m .NE. k) then",         # the guarded swap
        "A(i,k) = A(i,k)/A(k,k)",     # the scale
        "A(i,j) = A(i,j) - A(i,k)*A(k,j)",  # the update
    ]
    for piece in landmarks:
        assert piece in text, piece
    # exactly one sweep (P) loop from the collapse
    assert text.count("do is") == 1


def test_fixed_programs_stable_across_calls():
    assert pretty(build_variant("jacobi", "fixed")) == pretty(build_variant("jacobi", "fixed"))
    assert pretty(build_variant("lu", "fixed")) == pretty(build_variant("lu", "fixed"))
