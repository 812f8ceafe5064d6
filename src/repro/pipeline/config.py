"""Pipeline configuration: everything that changes what a stage produces.

The configuration is part of every stage's cache key, so two compiles
with different ISAs or BRISC knobs never share artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..vm.isa import ISA

__all__ = ["PipelineConfig"]


@dataclass
class PipelineConfig:
    """Knobs consumed by the stages.

    ``isa`` selects the abstract machine (the ablation variants de-tune
    it); ``brisc_k`` is :func:`repro.brisc.compress`'s patterns admitted
    per pass.

    The stages compile one form of each artifact: the flat WIR2 blob and
    BRI2 image.  A seekable WIR3/BRI3 container is a view of the IR
    module or the image, framed where it is served
    (:func:`repro.wire.encode_module_v3`,
    :func:`repro.brisc.encode.repack_v3`) at the chunk size its reader
    asks for, so container layout is not a compile setting.
    """

    isa: ISA = field(default_factory=ISA)
    brisc_k: int = 20
    #: Record a replay journal on brisc artifacts so a later
    #: ``Toolchain.compile(prev=...)`` can replay the build for an edited
    #: unit (see :mod:`repro.brisc.journal`).  Image bytes are unchanged,
    #: but the artifact payload grows, so this is opt-in and enters the
    #: cache keys (at the parse stage) only when set.
    brisc_journal: bool = False

    def with_isa(self, isa: Optional[ISA]) -> "PipelineConfig":
        """A copy targeting ``isa`` (``None`` keeps the current one)."""
        return self if isa is None else replace(self, isa=isa)

    def with_brisc(self, k: int) -> "PipelineConfig":
        """A copy admitting ``k`` BRISC patterns per pass."""
        return replace(self, brisc_k=k)

    def with_journal(self, journal: bool = True) -> "PipelineConfig":
        """A copy recording (or not) BRISC replay journals."""
        return replace(self, brisc_journal=journal)
