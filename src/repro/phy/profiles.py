"""Named PHY profiles: the single lookup shared by every plain-data caller.

``campaign/builders.py`` (scenario kwargs) and ``campaign/spec.py`` (TOML
specs) both accept a PHY by name; this module is the one place those names
are defined so the two paths can never drift apart
(tests/test_experiment_api.py pins the equivalence).
"""

from __future__ import annotations

from typing import Callable

from repro.phy.params import PhyParams, dot11a, dot11b

#: Profile name -> zero-argument factory producing the PhyParams.
PHY_PROFILES: dict[str, Callable[[], PhyParams]] = {
    "dot11b": dot11b,
    "dot11a": dot11a,
}


def profile_names() -> list[str]:
    """Sorted names accepted wherever a PHY can be given as a string."""
    return sorted(PHY_PROFILES)


def resolve_phy(phy: PhyParams | str | None) -> PhyParams | None:
    """Accept a :class:`PhyParams`, a profile name or None (scenario default).

    Profile names ("dot11b", "dot11a") let TOML campaign specs and other
    plain-data callers select a PHY without constructing objects.
    """
    if phy is None or isinstance(phy, PhyParams):
        return phy
    if isinstance(phy, str):
        factory = PHY_PROFILES.get(phy)
        if factory is None:
            raise ValueError(
                f"unknown PHY profile {phy!r}; known: {sorted(PHY_PROFILES)}"
            )
        return factory()
    raise TypeError(f"phy must be PhyParams, profile name or None, got {type(phy).__name__}")
