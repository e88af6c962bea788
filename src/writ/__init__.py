"""A small typed rewrite language with exact step counting, plus four
effect-based static analyses of the same terms: oracle-continuity moduli,
exact cost prediction, size-based cost bounds, and majorants.

The usual flow: parse a term, pick (or infer) a signature, then either run
it with the evaluator or translate it and interpret the translation under
one of the instantiations. The harness replays every analysis against the
evaluator and reports agreement.
"""

from .errors import *
from .syntax import *
from .parser import *
from .signatures import *
from .evaluator import *
from .meta import *
from .engine import *
from .instantiations import *
from .harness import *

__all__ = (errors.__all__ + syntax.__all__ + parser.__all__ + signatures.__all__
           + evaluator.__all__ + meta.__all__ + engine.__all__ + instantiations.__all__
           + harness.__all__)

__version__ = "0.1.0"
