"""widthlab: a numerical laboratory for stable nonlinear approximation.

Measures how well compact model classes can be approximated by maps with a
bounded number of parameters when both the parameter-selection and the
reconstruction maps are required to be Lipschitz.  The toolkit covers
entropy-number brackets, stable encoder/decoder pairs built from greedy
nets, random projections and Lipschitz extension, covering-number growth
bounds for stable-width sequences, a diagonal class separating stable
widths from entropy decay, finite-rank Lipschitz surrogates, and sparse
recovery viewed as a stable encoder/decoder pair.

The package namespace is the union of the modules' __all__ lists, which
are the only lists of public names.
"""

from .spaces import *
from .nets import *
from .extend import *
from .stablewidth import *
from .counterexample import *
from .csrecovery import *
from .interp import *
from .demos import *

__version__ = "0.1.0"
