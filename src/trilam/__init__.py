"""trilam: exact-arithmetic toolkit for invariant laminations of the circle
under angle tripling (and doubling), built around invariant quadratic gaps,
rotational sets, and their canonical laminations."""

from .chords import Chord, format_chord, image, is_critical, linked, parse_chord
from .circle import (
    Arc,
    angle,
    arc_length,
    contains,
    contains_closed,
    fixed_points,
    format_angle,
    orbit,
    parse_angle,
    preimages,
    sigma,
)
from .core import CoreReport, periodic_rotational_classes
from .lamination import (
    AttachedGap,
    CleanReport,
    InvarianceReport,
    Lamination,
    PullbackAmbiguityError,
    SmpVerdict,
    attached_cycle,
    canonical_diameter,
    canonical_of_quadratic_gap,
    canonical_of_rotational,
    check_invariance,
    classify_smp,
    clean,
    dumps,
    loads,
    project_through_gap,
    quadratic_canonical,
    read_lamination,
    write_lamination,
)
from .lamsets import (
    LamSet,
    RotationalReport,
    classify_rotational,
    enumerate_rotational,
    format_lamset,
    holes,
    majors,
    parse_lamset,
)
from .quadgap import (
    CriticalClass,
    GapGen,
    VassalGap,
    above_diameter,
    below_diameter,
    build_gap,
    classify_critical,
    psi,
    vassal,
)
from .render import RenderSpec, render

__version__ = "0.1.0"
