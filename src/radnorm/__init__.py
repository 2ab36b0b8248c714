"""Exact derivative-norm constants of radial power and logarithmic functions.

The squared Euclidean norm of the vector of all n^k mixed k-th order partial
derivatives of |x|^s (resp. log|x|) on R^n, multiplied by |x|^(2(k-s))
(resp. |x|^(2k)), is a constant.  This package computes those constants
exactly in rational arithmetic by closed formula, by dimension recursion and
by a brute-force symbolic-differentiation oracle, and certifies that all
routes agree.
"""

__version__ = "0.1.0"

from . import constants, exactnum, symdiff
from .exactnum import *
from .constants import *
from .symdiff import *

__all__ = ["__version__", *exactnum.__all__, *constants.__all__, *symdiff.__all__]
