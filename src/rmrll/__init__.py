"""Gap-constrained transmission with Reed-Muller codes.

The package builds binary Reed-Muller codes, shapes them to the
(d, infinity) minimum-gap constraint either by intersecting with an
anchored monomial subcode or by steering coset leaders with an
enumerative prefix map, and measures the resulting rates and error
probabilities on erasure and flip channels.  (``rmrll.cli`` is not
imported here.)
"""

from . import channels, coset, gf2, ordering, rll, rm, subcodes
from .channels import *
from .coset import *
from .gf2 import *
from .ordering import *
from .rll import *
from .rm import *
from .subcodes import *

__version__ = "0.1.0"

__all__ = [n for mod in (channels, coset, gf2, ordering, rll, rm, subcodes) for n in mod.__all__]
