"""Pipeline configuration: everything that changes what a stage produces.

The configuration is part of every stage's cache key, so two compiles
with different ISAs, BRISC knobs, or wire settings never share artifacts.
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

    ``wire_container``/``brisc_container`` select the container layout
    (2 = the flat v2 default, 3 = the seekable chunked v3);
    ``chunk_target_bytes`` caps v3 chunk sizes (in decoded-address-space
    bytes — see the format modules).  The stage fragments only mention
    these when they differ from the defaults, so existing cache keys are
    untouched.
    """

    isa: ISA = field(default_factory=ISA)
    brisc_k: int = 20
    #: Record a replay journal on brisc artifacts so a later
    #: ``Toolchain.compile(prev=...)`` can replay the build for an edited
    #: unit (see :mod:`repro.brisc.journal`).  Image bytes are unchanged,
    #: but the artifact payload grows, so this is opt-in and enters the
    #: brisc cache key only when set.
    brisc_journal: bool = False
    wire_container: int = 2
    brisc_container: int = 2
    chunk_target_bytes: int = 2048

    def with_isa(self, isa: Optional[ISA]) -> "PipelineConfig":
        """A copy targeting ``isa`` (``None`` keeps the current one)."""
        return self if isa is None else replace(self, isa=isa)

    def with_container(self, wire: Optional[int] = None,
                       brisc: Optional[int] = None,
                       chunk_bytes: Optional[int] = None) -> "PipelineConfig":
        """A copy with the given container knobs overridden."""
        for version in (wire, brisc):
            if version is not None and version not in (2, 3):
                raise ValueError(
                    f"container version must be 2 or 3, got {version}")
        if chunk_bytes is not None and chunk_bytes < 1:
            raise ValueError(
                f"chunk_target_bytes must be >= 1, got {chunk_bytes}")
        return replace(
            self,
            wire_container=self.wire_container if wire is None else wire,
            brisc_container=self.brisc_container if brisc is None else brisc,
            chunk_target_bytes=(self.chunk_target_bytes
                                if chunk_bytes is None else chunk_bytes),
        )

    def with_brisc(self, k: int) -> "PipelineConfig":
        """A copy admitting ``k`` BRISC patterns per pass."""
        return replace(self, brisc_k=k)

    def with_journal(self, journal: bool = True) -> "PipelineConfig":
        """A copy recording (or not) BRISC replay journals."""
        return replace(self, brisc_journal=journal)
