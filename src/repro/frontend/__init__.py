"""Mini-Fortran text frontend.

Programs can be written in the paper's FORTRAN-like notation and parsed
into the IR::

    from repro.frontend import parse_program

    program = parse_program('''
    program axpy
      param N
      real X(N), Y(N)
      real a
      output Y
    begin
      a = 2.0
      do i = 1, N
        Y(i) = Y(i) + a * X(i)
      end do
    end
    ''')

Comparison operators accept both Fortran (``.EQ.``, ``.LT.`` ...) and C
(``==``, ``<`` ...) spellings; ``!`` starts a comment;
``merge(if_true, if_false, cond)`` is the expression-level select.
``str(program)`` (:func:`repro.ir.pretty`) prints this same grammar, so
``parse_program(str(p)) == p`` (:mod:`repro.ir.printer` names the two
exceptions).
"""

from repro.frontend.lexer import Token, tokenize
from repro.frontend.parser import parse_program

__all__ = ["Token", "tokenize", "parse_program"]
