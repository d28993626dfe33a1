"""Prime-interval analysis: closed-form bounds with exhaustive verification.

A segmented odd-only sieve backs a catalog of prime-counting and prime-gap
bounds; every cataloged claim can be checked or falsified over user-chosen
ranges with deterministic, byte-identical reports.
"""

from . import bounds, errors, sieve, verify, cli
from .bounds import *
from .errors import *
from .sieve import *
from .verify import *
from .cli import *

__version__ = "0.1.0"

__all__ = ["__version__", *bounds.__all__, *errors.__all__, *sieve.__all__, *verify.__all__,
           *cli.__all__]
