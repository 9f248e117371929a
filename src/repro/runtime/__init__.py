"""Resource governance: budgets, deadlines, breakers, hedging.

The paper predicts index cost *under restricted resources*; this
package makes the restriction operational for the predictor itself.  A
:class:`Budget` states what a prediction may spend (charged I/O ops,
wall-clock seconds, sample bytes); a :class:`Governor` enforces it at
phase/chunk/leaf boundaries and converts imminent exhaustion into a
mid-flight downgrade along the facade's existing fallback chain; a
:class:`CircuitBreaker` fails disk access fast while a device is
misbehaving instead of burning the retry budget; :func:`run_hedged`
races a cheap estimate against the accurate one under a deadline.

All of it is opt-in and zero-overhead when unused: no budget means no
governor, no breaker means the charged path is untouched, and an ample
budget yields bit-identical predictions with zero extra charged I/O.
"""

from .breaker import CircuitBreaker
from .budget import Budget
from .governor import Governor
from .hedge import HedgeOutcome, run_hedged

__all__ = [
    "Budget",
    "CircuitBreaker",
    "Governor",
    "HedgeOutcome",
    "run_hedged",
]
