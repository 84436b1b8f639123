"""Seeded inputs shared by the workloads."""

from itertools import product
from typing import Iterable, List, Tuple

import numpy as np

from repro.auth.identifier import CytoIdentifier
from repro.particles.library import get_particle_type
from repro.particles.sample import Sample


def passwords(alphabet) -> List[CytoIdentifier]:
    """The passwords the workloads enrol, in a fixed order.

    Each bead type is present: an absent one cannot be told apart from
    a sparse one on a short capture, and an enrolment station rejects
    such passwords.  The password with every bead type at the lowest
    level, (1, 1) in the demo alphabet, is left out too: its captures
    sometimes recover no beads at all, and the session then fails with
    ``AuthenticationError`` instead of being rejected (seen at 8 to
    20 s).  The demo alphabet leaves eight.
    """
    lowest = (1,) * alphabet.n_characters
    return [
        CytoIdentifier(alphabet, levels)
        for levels in product(range(1, alphabet.n_levels), repeat=alphabet.n_characters)
        if levels != lowest
    ]


def patients(seed: int, alphabet, count: int) -> List[Tuple[str, CytoIdentifier]]:
    """``count`` patients with distinct passwords, chosen by seed."""
    candidates = passwords(alphabet)
    if count > len(candidates):
        raise ValueError(f"only {len(candidates)} passwords exist")
    order = np.random.default_rng([seed, 0x5EED]).permutation(len(candidates))
    return [(f"patient-{index:02d}", candidates[order[index]]) for index in range(count)]


def auth_counts(decisions: Iterable[Tuple[str, bool, str]]):
    """Accepted-as-self and accepted-as-someone-else decisions among
    ``(submitting patient, accepted, recognised user)`` triples."""
    accepted = misidentified = 0
    for patient, is_accepted, user_id in decisions:
        if is_accepted and user_id == patient:
            accepted += 1
        elif is_accepted:
            misidentified += 1
    return {"auth.accepted": float(accepted), "auth.misidentified": float(misidentified)}


def warmup_blood() -> Sample:
    """The fixed draw of every warm-up operation: 450 cells/uL, 10 uL."""
    return Sample.from_concentrations(
        {get_particle_type("blood_cell"): 450.0}, volume_ul=10.0
    )
